package bench

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"mime/multipart"
	"net"
	"net/textproto"
	"runtime"
	"time"

	"godavix/internal/core"
	"godavix/internal/httpserv"
	"godavix/internal/netsim"
	"godavix/internal/pool"
	"godavix/internal/rangev"
)

// vecpar-benchmark geometry: enough well-spread fragments that the read
// splits into many multi-range batches, which is where the parallel batch
// dispatch earns its keep.
const (
	vecParBlobSize = 8 << 20
	vecParK        = 512 // fragments per vectored read
	vecParFragLen  = 512
	vecParPerReq   = 32 // ranges per request -> 16 batches
	vecParConns    = 8  // MaxPerHost for the parallel client
	vecParPath     = "/store/vec.dat"
)

// vecParRanges spreads K fragments evenly so no two coalesce: every batch
// really costs the server one multipart response.
func vecParRanges() ([]rangev.Range, [][]byte) {
	stride := int64(vecParBlobSize / vecParK)
	ranges := make([]rangev.Range, vecParK)
	dsts := make([][]byte, vecParK)
	for i := range ranges {
		ranges[i] = rangev.Range{Off: int64(i) * stride, Len: vecParFragLen}
		dsts[i] = make([]byte, vecParFragLen)
	}
	return ranges, dsts
}

// runVecPar times `repeats` vectored reads with the given parallelism on a
// fresh testbed, after one untimed warm-up read that pays the dials and
// slow-start (the §2.2 session recycling the pool exists to amortize).
func runVecPar(prof netsim.Profile, parallelism, repeats int) (*Sample, error) {
	env, err := NewEnv(prof, httpserv.Options{})
	if err != nil {
		return nil, err
	}
	defer env.Close()
	blob := make([]byte, vecParBlobSize)
	rand.New(rand.NewSource(21)).Read(blob)
	if err := env.Store.Put(vecParPath, blob); err != nil {
		return nil, err
	}
	client, err := env.NewHTTPClient(core.Options{
		Strategy:            core.StrategyNone,
		MaxRangesPerRequest: vecParPerReq,
		VectorParallelism:   parallelism,
		Pool:                pool.Options{MaxPerHost: vecParConns},
	})
	if err != nil {
		return nil, err
	}
	defer client.Close()

	ctx := context.Background()
	ranges, dsts := vecParRanges()
	if err := client.ReadVec(ctx, HTTPAddr, vecParPath, ranges, dsts); err != nil {
		return nil, err
	}
	s := &Sample{}
	for rep := 0; rep < repeats; rep++ {
		timer := startTimer()
		if err := client.ReadVec(ctx, HTTPAddr, vecParPath, ranges, dsts); err != nil {
			return nil, err
		}
		s.AddDuration(timer())
	}
	return s, nil
}

// replayConn is a net.Conn that discards writes and serves one canned HTTP
// response over and over — the client's steady-state view of a perfectly
// recycled keep-alive session, with zero server-side allocation noise.
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

// vecParResponse renders the 206 multipart/byteranges response a server
// would send for the vecpar fragment set as one canned byte blob.
func vecParResponse(blob []byte, frames []rangev.Frame) ([]byte, error) {
	var body bytes.Buffer
	w := multipart.NewWriter(&body)
	if err := w.SetBoundary("vecparbd"); err != nil {
		return nil, err
	}
	for _, f := range frames {
		h := textproto.MIMEHeader{}
		h.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", f.Off, f.End()-1, len(blob)))
		pw, err := w.CreatePart(h)
		if err != nil {
			return nil, err
		}
		pw.Write(blob[f.Off:f.End()])
	}
	w.Close()
	head := fmt.Sprintf("HTTP/1.1 206 Partial Content\r\n"+
		"Content-Type: multipart/byteranges; boundary=vecparbd\r\n"+
		"Content-Length: %d\r\n\r\n", body.Len())
	return append([]byte(head), body.Bytes()...), nil
}

// vecParAllocs measures client-side allocations per vectored read against
// a canned-response replay connection (no in-process server to muddy the
// counter).
func vecParAllocs(repeats int) (float64, error) {
	blob := make([]byte, vecParBlobSize)
	rand.New(rand.NewSource(21)).Read(blob)
	ranges, dsts := vecParRanges()
	resp, err := vecParResponse(blob, rangev.Coalesce(ranges, 0))
	if err != nil {
		return 0, err
	}
	client, err := core.NewClient(core.Options{
		Dialer: pool.DialerFunc(func(ctx context.Context, addr string) (net.Conn, error) {
			return &replayConn{resp: resp}, nil
		}),
		Strategy:            core.StrategyNone,
		MaxRangesPerRequest: vecParK, // one batch: a stable request per read
	})
	if err != nil {
		return 0, err
	}
	defer client.Close()

	ctx := context.Background()
	for i := 0; i < 3; i++ { // warm the conn, the pools, and the caches
		if err := client.ReadVec(ctx, "replay:80", vecParPath, ranges, dsts); err != nil {
			return 0, err
		}
	}
	if repeats <= 0 {
		repeats = 1
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < repeats; i++ {
		if err := client.ReadVec(ctx, "replay:80", vecParPath, ranges, dsts); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(repeats), nil
}

// VecPar measures the PR-2 parallel vectored-read pipeline: serial versus
// concurrent multi-range batches on the LAN and WAN profiles, plus the
// scatter path's allocations per read. Not in the paper — the paper's
// davix ships batches serially; this quantifies what the §2.2 dynamic pool
// buys when the §2.3 vectored read is allowed to use all of it at once.
func VecPar(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	table := &Table{
		Title: "Parallel vectored reads: serial vs concurrent batches",
		Columns: []string{"link", "serial", fmt.Sprintf("parallel(%d conns)", vecParConns),
			"speedup", "allocs/op"},
		Notes: []string{
			fmt.Sprintf("%d fragments x %d B, %d ranges/request -> %d batches, blob %d MiB",
				vecParK, vecParFragLen, vecParPerReq, (vecParK+vecParPerReq-1)/vecParPerReq, vecParBlobSize>>20),
			"warm connections (one untimed read first); allocs measured client-side on a canned-response replay conn",
		},
	}

	allocs, err := vecParAllocs(opts.Repeats * 2)
	if err != nil {
		return nil, err
	}

	for _, prof := range []netsim.Profile{netsim.LAN(), netsim.WAN()} {
		serial, err := runVecPar(prof, 1, opts.Repeats)
		if err != nil {
			return nil, err
		}
		parallel, err := runVecPar(prof, 0, opts.Repeats)
		if err != nil {
			return nil, err
		}
		table.AddRow(
			prof.Name,
			formatDur(serial),
			formatDur(parallel),
			fmt.Sprintf("%.2fx", serial.Mean()/parallel.Mean()),
			fmt.Sprintf("%.0f", allocs),
		)
	}
	return table, nil
}

// formatDur picks ms formatting for sub-second samples.
func formatDur(s *Sample) string {
	if s.Mean() < time.Second.Seconds() {
		return Millis(s)
	}
	return Seconds(s)
}
