package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"mime/multipart"
	"net"
	"net/textproto"
	"runtime"
	"testing"
	"time"

	"godavix/internal/pool"
	"godavix/internal/rangev"
	"godavix/internal/webdav"
	"godavix/internal/wire"
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

// objectResponse is what the gateway answers a GET, range GET or HEAD of
// an object with: its whole header set (a 206 adds Content-Range), with
// Content-Length declaring length and body following.
func objectResponse(status, contentRange string, length int, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "HTTP/1.1 %s\r\nAccept-Ranges: bytes\r\nContent-Length: %d\r\n", status, length)
	if contentRange != "" {
		fmt.Fprintf(&b, "Content-Range: %s\r\n", contentRange)
	}
	b.WriteString("Content-Type: application/octet-stream\r\n" +
		"Last-Modified: Sun, 18 Oct 2026 11:27:48 GMT\r\n" +
		"X-Checksum: crc32c:f3178639\r\n" +
		"Date: Sun, 18 Oct 2026 11:27:48 GMT\r\n\r\n")
	b.Write(body)
	return b.Bytes()
}

// putResponse is the gateway's answer to a whole-object PUT.
const putResponse = "HTTP/1.1 201 Created\r\nDigest: crc32c=f3178639\r\n" +
	"Date: Sun, 18 Oct 2026 11:27:48 GMT\r\nContent-Length: 0\r\n\r\n"

// TestClientAllocBudgets bounds the client's allocations per call on its
// decode-heavy paths, against a replayConn so that the client alone counts:
//   - List of a 10k-entry collection through the streaming multistatus
//     decoder: 10039 measured once the scanner decoded straight into a
//     pooled listing (one href string per entry; 20068 before, 690178 with
//     a materialize-then-Unmarshal decoder), plus 25 %.
//   - ReadVec of 512 fragments in one multi-range request through the
//     streaming, buffer-pooled scatter: 2112 measured when the
//     materialize-then-scatter path (6226) was deleted, 2080 while the
//     Range header was rendered with fmt (two allocs a frame), 1043 since
//     it is rendered with strconv.AppendInt into one builder: the budget.
//     Under the race detector, which drops a share of sync.Pool puts, it
//     reads 1043–1047.
//   - Get of 16 KiB, GetRange of 512 B, Stat and Put of 16 KiB, each
//     against the gateway's own header set: 23/29/26/23 allocs and
//     1448/1560/1616/1448 B beyond the payload with map headers and a fresh
//     request and response per exchange; 2/5/1/2 allocs and
//     224/309/224/117 B once requests and responses were recycled and a
//     response's header block became one string (the Get is its body and
//     that string, the Stat the string alone). The GetRange then read 3
//     allocs and 304 B once its Range value became one string rendered
//     by rangev.SingleRangeHeader: its budget is those 3 allocs. Budgets
//     elsewhere: 2 allocs and about 300 B more. Under the race detector
//     they read up to 4/4/2/3 allocs and 1.9 KB, for the pooled writers
//     and structs it drops.
func TestClientAllocBudgets(t *testing.T) {
	const fragments, fragLen, objSize = 512, 512, 8 << 20
	ranges := make([]rangev.Range, fragments)
	dsts := make([][]byte, fragments)
	for i := range ranges {
		ranges[i] = rangev.Range{Off: int64(i) * objSize / fragments, Len: fragLen}
		dsts[i] = make([]byte, fragLen)
	}
	const small, rangeLen = 16 << 10, 512
	putBody := make([]byte, small)
	ctx := context.Background()

	for _, row := range []struct {
		name   string
		budget float64
		// payload is what the call returns to its caller; bytesBudget,
		// when set, bounds the bytes it allocates beyond that.
		payload, bytesBudget uint64
		resp                 func(t *testing.T) []byte
		op                   func(c *Client) error
	}{
		{"List 10k entries", 12500, 0, 0,
			func(t *testing.T) []byte { return listResponse(t, 10000) },
			func(c *Client) error {
				ls, err := c.List(ctx, "replay:80", "/flat")
				if err == nil && len(ls) != 10000 {
					err = fmt.Errorf("listed %d entries, want 10000", len(ls))
				}
				return err
			}},
		{"ReadVec 512 fragments", raceBudget(1043, 1200), 0, 0,
			func(t *testing.T) []byte { return vecResponse(t, objSize, rangev.Coalesce(ranges, 0)) },
			func(c *Client) error { return c.ReadVec(ctx, "replay:80", "/vec", ranges, dsts) }},
		{"Get 16 KiB", raceBudget(4, 8), small, raceBytes(512),
			func(*testing.T) []byte { return objectResponse("200 OK", "", small, make([]byte, small)) },
			func(c *Client) error {
				b, err := c.Get(ctx, "replay:80", "/small/o0001")
				if err == nil && len(b) != small {
					err = fmt.Errorf("got %d bytes", len(b))
				}
				return err
			}},
		{"GetRange 512 B", raceBudget(3, 8), rangeLen, raceBytes(640),
			func(*testing.T) []byte {
				return objectResponse("206 Partial Content", "bytes 100-611/16384", rangeLen, make([]byte, rangeLen))
			},
			func(c *Client) error {
				b, err := c.GetRange(ctx, "replay:80", "/small/o0001", 100, rangeLen)
				if err == nil && len(b) != rangeLen {
					err = fmt.Errorf("got %d bytes", len(b))
				}
				return err
			}},
		{"Stat", raceBudget(3, 6), 0, raceBytes(512),
			func(*testing.T) []byte { return objectResponse("200 OK", "", small, nil) },
			func(c *Client) error {
				inf, err := c.Stat(ctx, "replay:80", "/small/o0001")
				if err == nil && (inf.Size != small || inf.ModTime.IsZero() || inf.Checksum == "") {
					err = fmt.Errorf("stat %+v", inf)
				}
				return err
			}},
		{"Put 16 KiB", raceBudget(4, 8), 0, raceBytes(384),
			func(*testing.T) []byte { return []byte(putResponse) },
			func(c *Client) error { return c.Put(ctx, "replay:80", "/small/put/w0-00", putBody) }},
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
			call := func() {
				if err := row.op(c); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ { // the conn, the pools, the caches
				call()
			}
			allocs := testing.AllocsPerRun(5, call)
			t.Logf("%.0f allocs per call (budget %.0f)", allocs, row.budget)
			if allocs > row.budget {
				t.Fatalf("%.0f allocs per call, budget %.0f", allocs, row.budget)
			}
			if row.bytesBudget == 0 {
				return
			}
			const runs = 200
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < runs; i++ {
				call()
			}
			runtime.ReadMemStats(&m1)
			beyond := int64((m1.TotalAlloc-m0.TotalAlloc)/runs) - int64(row.payload)
			t.Logf("%d B per call beyond the %d B payload (budget %d)", beyond, row.payload, row.bytesBudget)
			if beyond > int64(row.bytesBudget) {
				t.Fatalf("%d B per call beyond the payload, budget %d", beyond, row.bytesBudget)
			}
		})
	}
}

// TestHealthyStatCostsNoFailover: Stat fails over, but a healthy primary
// pays nothing for it: not one allocation more than under StrategyNone,
// where nothing fails over. That it sends one HEAD and no Metalink lookup
// is the Stat line of testdata/wire/healthy.txt.
func TestHealthyStatCostsNoFailover(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation count: CI runs it without -race, in the alloc budgets step")
	}
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
		allocs[strategy] = testing.AllocsPerRun(20, stat)
	}
	t.Logf("allocs per Stat: %.0f failing over, %.0f without", allocs[StrategyFailover], allocs[StrategyNone])
	if allocs[StrategyFailover] != allocs[StrategyNone] {
		t.Fatalf("a healthy Stat allocates %.0f times failing over, %.0f without", allocs[StrategyFailover], allocs[StrategyNone])
	}
}

// turnConn is a replayConn that answers each read with the next of its
// responses, in turn: every exchange refills the client's read buffer.
type turnConn struct {
	replayConn
	resps [][]byte
	n     int
}

func (c *turnConn) Read(p []byte) (int, error) {
	r := c.resps[c.n%len(c.resps)]
	c.n++
	return copy(p, r), nil
}

// TestHeaderValuesOutliveTheirConnection: a header value read from one
// response is the response's own. The next exchange on the same pooled
// connection refills the connection's read buffer with other bytes at the
// same offsets, and the value read before does not change.
func TestHeaderValuesOutliveTheirConnection(t *testing.T) {
	first := objectResponse("200 OK", "", 16<<10, nil)
	second := bytes.ReplaceAll(first, []byte("crc32c:f3178639"), []byte("crc32c:00000000"))
	second = bytes.ReplaceAll(second, []byte("Sun, 18 Oct"), []byte("Mon, 19 Oct"))
	dials := 0
	c, err := NewClient(Options{
		Dialer: pool.DialerFunc(func(context.Context, string) (net.Conn, error) {
			dials++
			return &turnConn{resps: [][]byte{first, second}}, nil
		}),
		Strategy: StrategyNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	// The first exchange reads two header values directly, the second a
	// Stat of the other response, the third a Stat of the first again.
	var sum, date string
	err = c.exec(ctx, "replay:80", "/a", specHead, func(h, p string) *wire.Request {
		return wire.NewRequest("HEAD", h, p)
	}, func(_ Replica, resp *Response) error {
		sum, date = resp.Header.Get("X-Checksum"), resp.Header.Get("Date")
		return resp.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	inf2, err := c.Stat(ctx, "replay:80", "/b")
	if err != nil {
		t.Fatal(err)
	}
	inf3, err := c.Stat(ctx, "replay:80", "/c")
	if err != nil {
		t.Fatal(err)
	}
	if dials != 1 {
		t.Fatalf("%d dials, want every exchange on one pooled connection", dials)
	}
	if inf3.Checksum != "crc32c:f3178639" || inf2.Checksum != "crc32c:00000000" || !inf2.ModTime.Equal(time.Date(2026, 10, 19, 11, 27, 48, 0, time.UTC)) {
		t.Fatalf("after a third exchange, the second reads checksum %q, modified %v", inf2.Checksum, inf2.ModTime)
	}
	if sum != "crc32c:f3178639" || date != "Sun, 18 Oct 2026 11:27:48 GMT" {
		t.Fatalf("after two more exchanges, the first response's X-Checksum reads %q, Date %q", sum, date)
	}
}
