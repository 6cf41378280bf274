package main

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	davix "godavix"
	"godavix/internal/rootio"
)

// scriptedConn is an in-memory net.Conn: Read hands out the scripted
// chunks one per call, Write records what it was given.
type scriptedConn struct {
	reads  [][]byte
	wrote  []byte
	closed bool
}

func (c *scriptedConn) Read(p []byte) (int, error) {
	if len(c.reads) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.reads[0])
	if n == len(c.reads[0]) {
		c.reads = c.reads[1:]
	} else {
		c.reads[0] = c.reads[0][n:]
	}
	return n, nil
}

func (c *scriptedConn) Write(p []byte) (int, error) {
	c.wrote = append(c.wrote, p...)
	return len(p), nil
}
func (c *scriptedConn) Close() error                     { c.closed = true; return nil }
func (c *scriptedConn) LocalAddr() net.Addr              { return pipeAddr{} }
func (c *scriptedConn) RemoteAddr() net.Addr             { return pipeAddr{} }
func (c *scriptedConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptedConn) SetWriteDeadline(time.Time) error { return nil }

type scriptedDialer struct{ conn *scriptedConn }

func (d scriptedDialer) DialContext(context.Context, string) (net.Conn, error) { return d.conn, nil }

func dialScripted(t *testing.T, reads ...string) (*countingDialer, net.Conn, *scriptedConn) {
	t.Helper()
	sc := &scriptedConn{}
	for _, r := range reads {
		sc.reads = append(sc.reads, []byte(r))
	}
	d := newCountingDialer(scriptedDialer{sc})
	c, err := d.DialContext(context.Background(), "host:80")
	if err != nil {
		t.Fatal(err)
	}
	return d, c, sc
}

func TestCountingConnCountsRoundTripsAndBytes(t *testing.T) {
	// Exchange 1: a request written in three pieces (pipelined headers and
	// body), answered over two reads. Exchange 2: one write, one read.
	d, c, sc := dialScripted(t, "HTTP/1.1 200 OK\r\n", "Content-Length: 0\r\n\r\n", "second")
	buf := make([]byte, 64)
	for _, w := range []string{"PUT /a HTTP/1.1\r\n", "Content-Length: 3\r\n\r\n", "abc"} {
		if _, err := c.Write([]byte(w)); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.counts().roundTrips; got != 0 {
		t.Fatalf("round trips before any answer = %d, want 0", got)
	}
	c.Read(buf)
	c.Read(buf)
	if got := d.counts().roundTrips; got != 1 {
		t.Fatalf("pipelined writes + split answer = %d round trips, want 1", got)
	}
	c.Write([]byte("GET /b HTTP/1.1\r\n\r\n"))
	c.Read(buf)
	if _, err := c.Read(buf); err != io.EOF {
		t.Fatalf("read past the script = %v, want EOF", err)
	}
	got := d.counts()
	wantUp := int64(len("PUT /a HTTP/1.1\r\n"+"Content-Length: 3\r\n\r\n"+"abc") + len("GET /b HTTP/1.1\r\n\r\n"))
	wantDown := int64(len("HTTP/1.1 200 OK\r\n" + "Content-Length: 0\r\n\r\n" + "second"))
	if got.roundTrips != 2 || got.dials != 1 || got.up != wantUp || got.down != wantDown {
		t.Errorf("counts = %+v, want 2 round trips, 1 dial, %d up, %d down", got, wantUp, wantDown)
	}
	if int64(len(sc.wrote)) != wantUp {
		t.Errorf("inner conn saw %d bytes, want %d", len(sc.wrote), wantUp)
	}
	c.Close()
	if !sc.closed {
		t.Error("Close did not reach the wrapped conn")
	}
}

func TestCountingOnlyModeAllocatesNothingPerReadOrWrite(t *testing.T) {
	sc := &scriptedConn{}
	d := newCountingDialer(scriptedDialer{sc})
	c, _ := d.DialContext(context.Background(), "host:80")
	payload := []byte("0123456789")
	buf := make([]byte, 16)
	script := make([][]byte, 1)
	allocs := testing.AllocsPerRun(200, func() {
		sc.wrote = sc.wrote[:0]
		c.Write(payload)
		script[0] = payload
		sc.reads = script
		c.Read(buf)
	})
	if allocs != 0 {
		t.Errorf("counting-only Read+Write allocated %.1f objects per call, want 0", allocs)
	}
}

func TestRecordingConnEmitsDialAndExchangeSpansAndCapturesBytes(t *testing.T) {
	sc := &scriptedConn{reads: [][]byte{[]byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n"), []byte("hi"),
		[]byte("HTTP/1.1 204 No Content\r\n\r\n")}}
	d := newCountingDialer(scriptedDialer{sc})
	rec := newRecorder("unit")
	d.rec.Store(rec)
	end := rec.beginIter(0) // iteration 0 captures
	c, _ := d.DialContext(context.Background(), "host:80")
	buf := make([]byte, 128)
	c.Write([]byte("GET /x HTTP/1.1\r\nHost: host:80\r\n\r\n"))
	c.Read(buf)
	c.Read(buf)
	c.Write([]byte("DELETE /x HTTP/1.1\r\nHost: host:80\r\n\r\n"))
	c.Read(buf)
	end()
	d.rec.Store(nil)
	rec.closeConns()

	for _, want := range []struct {
		layer, name string
		n           int
	}{
		{"pool", "dial", 1}, {"pool", "conn", 1}, {"bench", "iteration", 1},
		{"wire", "exchange", 2}, {"wire", "write", 2}, {"wire", "ttfb", 2}, {"wire", "body", 2},
	} {
		if got := len(rec.selectSpans(want.layer, want.name)); got != want.n {
			t.Errorf("%s/%s spans = %d, want %d", want.layer, want.name, got, want.n)
		}
	}
	conn := rec.selectSpans("pool", "conn")[0]
	for _, ex := range rec.selectSpans("wire", "exchange") {
		if ex.Parent != conn.ID || ex.EndNs < ex.StartNs || ex.Workload != "unit" {
			t.Errorf("exchange span %+v: want parent %d and a forward interval", ex, conn.ID)
		}
	}

	cp := parseCapture(rec)
	if len(cp.conns) != 1 || len(cp.conns[0].exchanges) != 2 {
		t.Fatalf("parsed %d conns, want 1 with 2 exchanges: %+v", len(cp.conns), cp.conns)
	}
	first, second := cp.conns[0].exchanges[0], cp.conns[0].exchanges[1]
	if first.method != "GET" || first.path != "/x" || first.status != 200 || string(first.respBody) != "hi" {
		t.Errorf("first exchange = %+v", first)
	}
	if second.method != "DELETE" || second.status != 204 || len(second.respBody) != 0 {
		t.Errorf("second exchange = %+v", second)
	}
	if string(first.rawReq) != "GET /x HTTP/1.1\r\nHost: host:80\r\n\r\n" {
		t.Errorf("raw request = %q", first.rawReq)
	}

	// With the recorder gone the same connection counts and nothing more.
	before := len(rec.spans)
	c.Write([]byte("x"))
	if len(rec.spans) != before {
		t.Error("connection kept recording after the traced round ended")
	}
}

func TestSourceWrapperCountsAndSpans(t *testing.T) {
	rec := newRecorder("unit")
	end := rec.beginIter(0)
	boom := errors.New("boom")
	release := make(chan struct{})
	src := rec.wrapSource(rootio.Source{
		Size:    100,
		ReadVec: func([]davix.Range, [][]byte) error { return nil },
		ReadVecAsyncCtx: func(context.Context, []davix.Range, [][]byte) <-chan error {
			ch := make(chan error, 1)
			go func() { <-release; ch <- boom }()
			return ch
		},
	})
	if err := src.ReadVec([]davix.Range{{Off: 0, Len: 10}, {Off: 50, Len: 5}}, nil); err != nil {
		t.Fatal(err)
	}
	done := src.ReadVecAsyncCtx(context.Background(), []davix.Range{{Off: 20, Len: 7}}, nil)
	if n := len(rec.selectSpans("core", "readvec_async")); n != 0 {
		t.Fatalf("async span recorded before completion: %d", n)
	}
	close(release)
	if err := <-done; err != boom {
		t.Fatalf("async completion = %v, want the source's own error", err)
	}
	end()
	if c, r, b := rec.srcCalls.Load(), rec.srcRanges.Load(), rec.srcBytes.Load(); c != 2 || r != 3 || b != 22 {
		t.Errorf("calls, ranges, bytes = %d, %d, %d, want 2, 3, 22", c, r, b)
	}
	if len(rec.selectSpans("core", "readvec")) != 1 || len(rec.selectSpans("core", "readvec_async")) != 1 {
		t.Errorf("spans: %+v", rec.spans)
	}
	if len(rec.vectors) != 2 || len(rec.vectors[0]) != 2 {
		t.Errorf("captured vectors = %v", rec.vectors)
	}
	if src.Hint != nil {
		t.Error("wrapper invented a Hint the source does not have")
	}
}

func TestSelfShareSubtractsBusyConnections(t *testing.T) {
	call := []span{{StartNs: 0, EndNs: 100}}
	busy := []span{{StartNs: 10, EndNs: 30}, {StartNs: 20, EndNs: 50}, {StartNs: 90, EndNs: 200}, {StartNs: 300, EndNs: 400}}
	// Covered: [10,50) and [90,100) = 50 of 100.
	if got := selfShare(call, busy); !near(got, 0.5) {
		t.Errorf("selfShare = %v, want 0.5", got)
	}
	if got := selfShare(call, nil); got != 1 {
		t.Errorf("selfShare with idle connections = %v, want 1", got)
	}
}

func TestRangeParts(t *testing.T) {
	if n, b := rangeParts("bytes=0-99,200-249"); n != 2 || b != 150 {
		t.Errorf("rangeParts = %d, %d", n, b)
	}
	for _, bad := range []string{"", "bytes=", "bytes=5-1", "items=0-1", "bytes=a-b"} {
		if n, _ := rangeParts(bad); n != 0 {
			t.Errorf("rangeParts(%q) = %d parts, want 0", bad, n)
		}
	}
}
