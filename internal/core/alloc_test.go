package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"mime/multipart"
	"net"
	"net/textproto"
	"testing"
	"time"

	"godavix/internal/pool"
	"godavix/internal/rangev"
	"godavix/internal/webdav"
)

// replayConn is a net.Conn that discards writes and serves one canned HTTP
// response over and over: the client's steady-state view of a perfectly
// recycled keep-alive session, with no server in the process to count.
type replayConn struct {
	resp []byte
	pos  int
}

func (c *replayConn) Read(p []byte) (int, error) {
	if c.pos == len(c.resp) {
		c.pos = 0
	}
	n := copy(p, c.resp[c.pos:])
	c.pos += n
	return n, nil
}

func (c *replayConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *replayConn) Close() error                     { return nil }
func (c *replayConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *replayConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *replayConn) SetDeadline(time.Time) error      { return nil }
func (c *replayConn) SetReadDeadline(time.Time) error  { return nil }
func (c *replayConn) SetWriteDeadline(time.Time) error { return nil }

// listResponse is the 207 a server sends for a flat collection of n files.
func listResponse(t *testing.T, n int) []byte {
	t.Helper()
	entries := []webdav.Entry{{Href: "/flat", Dir: true}}
	for i := 0; i < n; i++ {
		entries = append(entries, webdav.Entry{Href: fmt.Sprintf("/flat/f%05d.rnt", i), Size: int64(i)})
	}
	body := multistatus(t, entries...)
	head := fmt.Sprintf("HTTP/1.1 207 Multi-Status\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
		webdav.ContentType, len(body))
	return append([]byte(head), body...)
}

// vecResponse is the 206 multipart/byteranges a server sends for frames of
// an object of the given size.
func vecResponse(t *testing.T, size int64, frames []rangev.Frame) []byte {
	t.Helper()
	blob := make([]byte, size)
	rand.New(rand.NewSource(21)).Read(blob)
	var body bytes.Buffer
	w := multipart.NewWriter(&body)
	for _, f := range frames {
		h := textproto.MIMEHeader{}
		h.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", f.Off, f.End()-1, size))
		pw, err := w.CreatePart(h)
		if err != nil {
			t.Fatal(err)
		}
		pw.Write(blob[f.Off:f.End()])
	}
	w.Close()
	head := fmt.Sprintf("HTTP/1.1 206 Partial Content\r\nContent-Type: multipart/byteranges; boundary=%s\r\nContent-Length: %d\r\n\r\n",
		w.Boundary(), body.Len())
	return append([]byte(head), body.Bytes()...)
}

// TestClientAllocBudgets bounds the client's allocations per call on its
// decode-heavy paths, against a replayConn so that the client alone counts:
//   - List of a 10k-entry collection through the streaming multistatus
//     decoder: 10039 measured once the scanner decoded straight into a
//     pooled listing (one href string per entry; 20068 before, 690178 with
//     a materialize-then-Unmarshal decoder), plus 25 %.
//   - ReadVec of 512 fragments in one multi-range request through the
//     streaming, buffer-pooled scatter: 2112 measured when the
//     materialize-then-scatter path (6226) was deleted, plus headroom.
//     Under the race detector, which drops a share of sync.Pool puts, it
//     reads 2460–2520.
func TestClientAllocBudgets(t *testing.T) {
	const fragments, fragLen, objSize = 512, 512, 8 << 20
	ranges := make([]rangev.Range, fragments)
	dsts := make([][]byte, fragments)
	for i := range ranges {
		ranges[i] = rangev.Range{Off: int64(i) * objSize / fragments, Len: fragLen}
		dsts[i] = make([]byte, fragLen)
	}
	ctx := context.Background()

	for _, row := range []struct {
		name   string
		budget float64
		resp   func(t *testing.T) []byte
		op     func(c *Client) error
	}{
		{"List 10k entries", 12500,
			func(t *testing.T) []byte { return listResponse(t, 10000) },
			func(c *Client) error {
				ls, err := c.List(ctx, "replay:80", "/flat")
				if err == nil && len(ls) != 10000 {
					err = fmt.Errorf("listed %d entries, want 10000", len(ls))
				}
				return err
			}},
		{"ReadVec 512 fragments", 2600,
			func(t *testing.T) []byte { return vecResponse(t, objSize, rangev.Coalesce(ranges, 0)) },
			func(c *Client) error { return c.ReadVec(ctx, "replay:80", "/vec", ranges, dsts) }},
	} {
		t.Run(row.name, func(t *testing.T) {
			resp := row.resp(t)
			c, err := NewClient(Options{
				Dialer: pool.DialerFunc(func(context.Context, string) (net.Conn, error) {
					return &replayConn{resp: resp}, nil
				}),
				Strategy:            StrategyNone,
				MaxRangesPerRequest: fragments, // one request per ReadVec
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for i := 0; i < 3; i++ { // the conn, the pools, the caches
				if err := row.op(c); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(5, func() {
				if err := row.op(c); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%.0f allocs per call (budget %.0f)", allocs, row.budget)
			if allocs > row.budget {
				t.Fatalf("%.0f allocs per call, budget %.0f", allocs, row.budget)
			}
		})
	}
}

// TestHealthyStatCostsNoFailover: Stat fails over, but a healthy primary
// pays nothing for it: one HEAD per Stat, no Metalink lookup, and not one
// allocation more than under StrategyNone, where nothing fails over.
func TestHealthyStatCostsNoFailover(t *testing.T) {
	ctx := context.Background()
	resp := []byte("HTTP/1.1 200 OK\r\nContent-Length: 42\r\n\r\n")
	allocs := map[Strategy]float64{}
	for _, strategy := range []Strategy{StrategyFailover, StrategyNone} {
		c, err := NewClient(Options{
			Dialer: pool.DialerFunc(func(context.Context, string) (net.Conn, error) {
				return &replayConn{resp: resp}, nil
			}),
			Strategy:     strategy,
			MetalinkHost: "fed:80",
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		stat := func() {
			if inf, err := c.Stat(ctx, "replay:80", "/f"); err != nil || inf.Size != 42 {
				t.Fatalf("Stat: %+v, %v", inf, err)
			}
		}
		for i := 0; i < 3; i++ { // the conn, the pools
			stat()
		}
		before := c.Metrics().Requests
		allocs[strategy] = testing.AllocsPerRun(20, stat)
		if n := c.Metrics().Requests - before; n != 21 { // AllocsPerRun's warm-up call, then 20
			t.Errorf("strategy %d: %d requests for 21 Stats, want one HEAD each", strategy, n)
		}
	}
	t.Logf("allocs per Stat: %.0f failing over, %.0f without", allocs[StrategyFailover], allocs[StrategyNone])
	if allocs[StrategyFailover] != allocs[StrategyNone] {
		t.Fatalf("a healthy Stat allocates %.0f times failing over, %.0f without", allocs[StrategyFailover], allocs[StrategyNone])
	}
}
