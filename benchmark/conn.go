package main

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	davix "godavix"
)

// wireCounts are the totals a countingDialer keeps over all the
// connections it opened.
type wireCounts struct {
	dials      int64
	up, down   int64
	roundTrips int64 // write→read turnarounds, summed over connections
}

func (a wireCounts) sub(b wireCounts) wireCounts {
	return wireCounts{a.dials - b.dials, a.up - b.up, a.down - b.down, a.roundTrips - b.roundTrips}
}

// countingDialer wraps the real davix.Dialer. It always counts bytes,
// dials and round trips with atomics (no allocation, no clock read per
// Read/Write). While rec is set it also records dial, connection and
// exchange spans and, while rec.capture is on, the bytes themselves.
type countingDialer struct {
	inner davix.Dialer
	rec   atomic.Pointer[recorder]

	dials, up, down, roundTrips atomic.Int64
}

func newCountingDialer(inner davix.Dialer) *countingDialer {
	return &countingDialer{inner: inner}
}

func (d *countingDialer) counts() wireCounts {
	return wireCounts{d.dials.Load(), d.up.Load(), d.down.Load(), d.roundTrips.Load()}
}

// DialContext implements davix.Dialer.
func (d *countingDialer) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	rec := d.rec.Load()
	var start time.Time
	if rec != nil {
		start = time.Now()
	}
	c, err := d.inner.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	d.dials.Add(1)
	if rec != nil {
		rec.add(rec.newID(), rec.currentRoot(), "pool", "dial", start, time.Now())
	}
	return &countedConn{Conn: c, d: d}, nil
}

// countedConn is a connection opened through a countingDialer. It hides
// the wrapped connection's optional interfaces (io.ReaderFrom,
// syscall.Conn), so transfers through it use the client's userspace copy
// path — which the bulk workloads use anyway, because they verify.
type countedConn struct {
	net.Conn
	d     *countingDialer
	wrote atomic.Bool // the last activity on the connection was a Write
	rec   atomic.Pointer[connRec]
}

// recording returns the connection's recording side when a traced round is
// in progress, creating it on first use: pooled connections outlive the
// plain rounds and must show up in the trace all the same.
func (c *countedConn) recording() *connRec {
	rec := c.d.rec.Load()
	if rec == nil {
		return nil
	}
	if cr := c.rec.Load(); cr != nil && cr.rec == rec {
		return cr
	}
	cr := &connRec{rec: rec, id: rec.newID(), parent: rec.currentRoot(), opened: time.Now()}
	c.rec.Store(cr)
	rec.mu.Lock()
	rec.conns = append(rec.conns, cr)
	rec.mu.Unlock()
	return cr
}

func (c *countedConn) Write(p []byte) (int, error) {
	cr := c.recording()
	var start time.Time
	if cr != nil {
		start = time.Now()
	}
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.d.up.Add(int64(n))
		c.wrote.Store(true)
		if cr != nil {
			cr.noteWrite(start, p[:n])
		}
	}
	return n, err
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.d.down.Add(int64(n))
		// Several writes before the first answering byte (a pipelined
		// request, headers then body) are one round trip, and so is an
		// answer that arrives over several reads.
		if c.wrote.CompareAndSwap(true, false) {
			c.d.roundTrips.Add(1)
		}
		if cr := c.recording(); cr != nil {
			cr.noteRead(p[:n])
		}
	}
	return n, err
}

func (c *countedConn) Close() error {
	if cr := c.rec.Load(); cr != nil {
		cr.close()
	}
	return c.Conn.Close()
}

// connRec is the recording side of one traced connection: the exchange in
// progress (first write → last read before the next write) and, while the
// recorder captures, the bytes of both directions.
type connRec struct {
	rec    *recorder
	id     int64 // the connection's own span
	parent int64
	opened time.Time

	mu                                     sync.Mutex
	firstWrite, lastWrite, firstRead, last time.Time
	up, down                               []byte
	closed                                 bool
}

func (c *connRec) noteWrite(start time.Time, p []byte) {
	now := time.Now()
	c.mu.Lock()
	if !c.firstRead.IsZero() {
		c.flushLocked()
	}
	if c.firstWrite.IsZero() {
		c.firstWrite = start
	}
	c.lastWrite = now
	if c.rec.capture.Load() {
		c.up = append(c.up, p...)
	}
	c.mu.Unlock()
}

func (c *connRec) noteRead(p []byte) {
	now := time.Now()
	c.mu.Lock()
	if c.firstRead.IsZero() {
		c.firstRead = now
	}
	c.last = now
	if c.rec.capture.Load() {
		c.down = append(c.down, p...)
	}
	c.mu.Unlock()
}

// flushLocked turns the finished exchange into spans: the whole exchange,
// and under it the request write, the wait for the first byte, and the
// body.
func (c *connRec) flushLocked() {
	if !c.firstWrite.IsZero() && !c.firstRead.IsZero() {
		ex := c.rec.newID()
		c.rec.add(ex, c.id, "wire", "exchange", c.firstWrite, c.last)
		c.rec.add(c.rec.newID(), ex, "wire", "write", c.firstWrite, c.lastWrite)
		c.rec.add(c.rec.newID(), ex, "wire", "ttfb", c.lastWrite, c.firstRead)
		c.rec.add(c.rec.newID(), ex, "wire", "body", c.firstRead, c.last)
	}
	c.firstWrite, c.lastWrite, c.firstRead, c.last = time.Time{}, time.Time{}, time.Time{}, time.Time{}
}

func (c *connRec) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	c.flushLocked()
	c.rec.add(c.id, c.parent, "pool", "conn", c.opened, time.Now())
}
