package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"godavix/internal/blockcache"
	"godavix/internal/bufpool"
	"godavix/internal/digest"
	"godavix/internal/httpserv"
	"godavix/internal/netsim"
	"godavix/internal/pool"
	"godavix/internal/rangev"
	"godavix/internal/storage"
	"godavix/internal/webdav"
	"godavix/internal/wire"
)

// largeBody separates the per-byte replays from the per-request ones.
const largeBody = 128 << 10

// loopStats is what timeLoop measured, per call of fn.
type loopStats struct {
	seconds float64
	allocs  float64 // heap objects
	bytes   float64 // heap bytes
}

// timeLoop calls fn until budget has passed, at least once.
func timeLoop(budget time.Duration, fn func()) loopStats {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n := 0
	for {
		fn()
		n++
		if time.Since(start) >= budget {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return loopStats{
		seconds: elapsed.Seconds() / float64(n),
		allocs:  float64(m1.Mallocs-m0.Mallocs) / float64(n),
		bytes:   float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
	}
}

// batch is how many calls the nanosecond-scale replays make per clock read.
const batch = 1000

// replayMetrics times each layer's public functions on the captured
// inputs. Replays whose input set is empty leave their metric at 0.
func replayMetrics(m map[string]float64, w workload, cp *capture, budget time.Duration) {
	if a, ok := w.(*analysis); ok {
		st := timeLoop(budget, func() { a.memJob(false) })
		m["rootio.mem_us_per_event"] = st.seconds * 1e6 / float64(a.sc.events)
		m["rootio.mem_alloc_B_per_event"] = st.bytes / float64(a.sc.events)
	}
	m["pool.getput_ns_g1"] = replayPool(budget, 1)
	m["pool.getput_ns_g2"] = replayPool(budget, 2)
	replayWire(m, cp, budget)
	replayRangev(m, cp, budget)
	replayWebdav(m, cp, budget)
	replayDigest(m, cp, budget)
	replayServer(m, w.bed().store, cp, budget)
	replayStorage(m, w.bed().store, cp, budget)
	replayNetsim(m, budget)
	replayBlockcache(m, budget)
}

// replayPool times a Get/Put pair on a warm pool from g goroutines at
// once; the figure is the wall time one goroutine sees per pair.
func replayPool(budget time.Duration, g int) float64 {
	var mu sync.Mutex
	var peers []net.Conn
	p := pool.New(pool.DialerFunc(func(context.Context, string) (net.Conn, error) {
		a, b := net.Pipe()
		mu.Lock()
		peers = append(peers, b)
		mu.Unlock()
		return a, nil
	}), pool.Options{MaxPerHost: maxConns})
	defer func() {
		p.Close()
		for _, c := range peers {
			c.Close()
		}
	}()
	var wg sync.WaitGroup
	pairs := make([]int, g)
	start := time.Now()
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Since(start) < budget {
				for j := 0; j < batch; j++ {
					c, err := p.Get(bg, "replay:80")
					if err != nil {
						return
					}
					p.Put(c)
				}
				pairs[i] += batch
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := 0
	for _, n := range pairs {
		total += n
	}
	return ratio(float64(elapsed.Nanoseconds())*float64(g), float64(total))
}

// replayWire parses the captured response streams again with
// wire.ReadResponse and serializes the captured requests again with
// Request.Write.
func replayWire(m map[string]float64, cp *capture, budget time.Duration) {
	responses := 0
	for _, c := range cp.conns {
		responses += len(c.methods)
	}
	if responses == 0 {
		return
	}
	st := timeLoop(budget, func() {
		for _, c := range cp.conns {
			br := bufio.NewReader(bytes.NewReader(c.down))
			for _, method := range c.methods {
				resp, err := wire.ReadResponse(br, method)
				if err != nil {
					return
				}
				resp.Discard()
			}
		}
	})
	m["wire.parse_us_per_resp"] = st.seconds * 1e6 / float64(responses)
	m["wire.parse_allocs_per_resp"] = st.allocs / float64(responses)

	sent := cp.exchanges(all)
	reqs := make([]*wire.Request, len(sent))
	for i, e := range sent {
		reqs[i] = wire.NewRequest(e.method, e.host, e.target)
		for k, vs := range e.reqHeader {
			if k == "Content-Length" || k == "Transfer-Encoding" {
				continue // Write manages the framing headers itself
			}
			for _, v := range vs {
				reqs[i].Header.Add(k, v)
			}
		}
	}
	st = timeLoop(budget, func() {
		for i, e := range sent {
			if len(e.reqBody) > 0 {
				reqs[i].SetBodyBytes(e.reqBody)
			}
			reqs[i].Write(io.Discard)
		}
	})
	m["wire.write_us_per_req"] = st.seconds * 1e6 / float64(len(sent))
}

// replayRangev re-runs Coalesce and RangeHeader on the captured vectors,
// and ScatterMultipart on the captured multipart bodies of the vectors
// whose request can be found in the capture. The gap is the one the
// workloads' clients run with (davix.Options.CoalesceGap left at 0).
func replayRangev(m map[string]float64, cp *capture, budget time.Duration) {
	var frames, frameBytes, wanted float64
	multipart := map[string]*exchange{}
	for _, e := range cp.exchanges(func(e *exchange) bool { return e.method == "GET" }) {
		h := e.reqHeader.Get("Range")
		parts, n := rangeParts(h)
		frames += float64(parts)
		frameBytes += float64(n)
		if _, ok := rangev.IsMultipartByteranges(e.respHeader.Get("Content-Type")); ok && e.status == 206 {
			multipart[h] = e
		}
	}
	for _, v := range cp.vectors {
		for _, r := range v {
			wanted += float64(r.Len)
		}
	}
	if len(cp.vectors) == 0 {
		return
	}
	m["rangev.frames_per_fill"] = frames / float64(len(cp.vectors))
	m["rangev.sieve_overhead_ratio"] = ratio(frameBytes, wanted)

	st := timeLoop(budget, func() {
		for _, v := range cp.vectors {
			rangev.RangeHeader(rangev.Coalesce(v, 0))
		}
	})
	m["rangev.coalesce_us_per_fill"] = st.seconds * 1e6 / float64(len(cp.vectors))

	type fill struct {
		body     []byte
		boundary string
		frames   []rangev.Frame
		ranges   []rangev.Range
		dsts     [][]byte
	}
	var fills []fill
	var bodyBytes float64
	for _, v := range cp.vectors {
		fr := rangev.Coalesce(v, 0)
		e := multipart[rangev.RangeHeader(fr)]
		if e == nil {
			continue
		}
		boundary, _ := rangev.IsMultipartByteranges(e.respHeader.Get("Content-Type"))
		dsts := make([][]byte, len(v))
		for i, r := range v {
			dsts[i] = make([]byte, r.Len)
		}
		fills = append(fills, fill{e.respBody, boundary, fr, v, dsts})
		bodyBytes += float64(len(e.respBody))
	}
	if len(fills) == 0 {
		return
	}
	st = timeLoop(budget, func() {
		for _, f := range fills {
			rangev.ScatterMultipart(bytes.NewReader(f.body), f.boundary, f.frames, f.ranges, f.dsts)
		}
	})
	m["rangev.scatter_ms_per_MB"] = st.seconds * 1e3 / (bodyBytes / (1 << 20))
	m["rangev.scatter_allocs_per_fill"] = st.allocs / float64(len(fills))
}

// replayWebdav decodes the captured multistatus bodies again.
func replayWebdav(m map[string]float64, cp *capture, budget time.Duration) {
	lists, entries := cp.listings()
	if entries == 0 {
		return
	}
	var bodyBytes float64
	for _, e := range lists {
		bodyBytes += float64(len(e.respBody))
	}
	st := timeLoop(budget, func() {
		for _, e := range lists {
			webdav.DecodeMultistatusStream(bytes.NewReader(e.respBody))
		}
	})
	m["webdav.decode_us_per_entry"] = st.seconds * 1e6 / entries
	m["webdav.decode_allocs_per_entry"] = st.allocs / entries
	m["webdav.body_bytes_per_entry"] = bodyBytes / entries
}

// replayDigest hashes the captured large bodies the way the transfer
// engine does (adler32 through digest.New, in pooled-buffer-sized pieces)
// and combines the resulting sums.
func replayDigest(m map[string]float64, cp *capture, budget time.Duration) {
	st := timeLoop(budget, func() {
		for i := 0; i < batch; i++ {
			bufpool.Put(bufpool.Get(64 << 10))
		}
	})
	m["bufpool.getput_ns_64K"] = st.seconds * 1e9 / batch

	var bodies [][]byte
	var total float64
	for _, e := range cp.exchanges(all) {
		for _, b := range [][]byte{e.reqBody, e.respBody} {
			if len(b) >= largeBody {
				bodies = append(bodies, b)
				total += float64(len(b))
			}
		}
	}
	if len(bodies) == 0 {
		return
	}
	sums := make([]uint32, len(bodies))
	st = timeLoop(budget, func() {
		for i, b := range bodies {
			h, err := digest.New(digest.Adler32)
			if err != nil {
				return
			}
			for off := 0; off < len(b); off += 64 << 10 {
				h.Write(b[off:min(off+64<<10, len(b))])
			}
			sums[i] = binary.BigEndian.Uint32(h.Sum(nil))
		}
	})
	m["digest.sum_ms_per_MB"] = st.seconds * 1e3 / (total / (1 << 20))
	st = timeLoop(budget, func() {
		acc := sums[0]
		for i := 0; i < batch; i++ {
			j := i % len(bodies)
			acc = digest.Combine(digest.Adler32, acc, sums[j], int64(len(bodies[j])))
		}
		sums[0] = acc
	})
	m["digest.combine_ns"] = st.seconds * 1e9 / batch
}

// pipeListener is an in-memory net.Listener: dial hands one end of a
// net.Pipe to Accept.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial() (net.Conn, error) {
	a, b := net.Pipe()
	select {
	case l.conns <- b:
		return a, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// serve replays exs, in order and one at a time, into a fresh httpserv
// over store, and returns the seconds one pass took.
func serve(store storage.Store, exs []*exchange, budget time.Duration) (float64, error) {
	srv := httpserv.New(store, httpserv.Options{})
	l := newPipeListener()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	conn, err := l.dial()
	if err != nil {
		return 0, err
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	var failure error
	st := timeLoop(budget, func() {
		for _, e := range exs {
			// net.Pipe is unbuffered and the server may answer (100
			// Continue) before it has read the whole request.
			wrote := make(chan error, 1)
			go func() { _, err := conn.Write(e.rawReq); wrote <- err }()
			for {
				resp, err := wire.ReadResponse(br, e.method)
				if err != nil {
					failure = err
					return
				}
				resp.Discard()
				if resp.StatusCode/100 != 1 {
					// The class, not the code: chunks of a ranged upload are
					// replayed connection by connection, so a different one
					// completes the object (201) than in the capture.
					if resp.StatusCode/100 != e.status/100 {
						failure = fmt.Errorf("replay %s %s: status %d, captured %d", e.method, e.target, resp.StatusCode, e.status)
					}
					break
				}
			}
			if err := <-wrote; err != nil {
				failure = err
				return
			}
		}
	})
	conn.Close()
	l.Close()
	srv.Close()
	<-served
	return st.seconds, failure
}

// replayServer sends the captured requests to the gateway again over an
// in-memory listener, one class of request per metric. The times include
// the replaying side's framing of the response.
func replayServer(m map[string]float64, store storage.Store, cp *capture, budget time.Duration) {
	mib := func(exs []*exchange) float64 {
		var n float64
		for _, e := range exs {
			n += float64(len(e.reqBody) + len(e.respBody))
		}
		return n / (1 << 20)
	}
	run := func(name string, exs []*exchange, per float64) {
		if len(exs) == 0 || per == 0 {
			return
		}
		sec, err := serve(store, exs, budget)
		if err != nil {
			// A replay that did not reproduce the capture measures nothing.
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			return
		}
		m[name] = sec / per
	}
	parts := func(e *exchange) int { n, _ := rangeParts(e.reqHeader.Get("Range")); return n }

	small := cp.exchanges(func(e *exchange) bool {
		return e.method == "GET" && parts(e) < 2 && len(e.respBody) < largeBody
	})
	run("httpserv.get_us_per_req", small, float64(len(small))/1e6)
	large := cp.exchanges(func(e *exchange) bool { return e.method == "GET" && len(e.respBody) >= largeBody })
	run("httpserv.get_ms_per_MB", large, mib(large)/1e3)
	puts := cp.exchanges(func(e *exchange) bool { return e.method == "PUT" && len(e.reqBody) >= largeBody })
	run("httpserv.put_ms_per_MB", puts, mib(puts)/1e3)
	lists, entries := cp.listings()
	run("httpserv.propfind_us_per_entry", lists, entries/1e6)
	multi := cp.exchanges(func(e *exchange) bool { return e.method == "GET" && parts(e) >= 2 })
	var nparts float64
	for _, e := range multi {
		nparts += float64(parts(e))
	}
	run("httpserv.multirange_us_per_part", multi, nparts/1e6)
}

// replayStorage calls the store directly with the paths and bodies of the
// captured requests.
func replayStorage(m map[string]float64, store storage.Store, cp *capture, budget time.Duration) {
	gets := cp.exchanges(func(e *exchange) bool {
		return e.method == "GET" && e.status/100 == 2 && len(e.respBody) < largeBody
	})
	if len(gets) > 0 {
		st := timeLoop(budget, func() {
			for _, e := range gets {
				store.Get(e.path)
			}
		})
		m["storage.get_us"] = st.seconds * 1e6 / float64(len(gets))
	}
	puts := cp.exchanges(func(e *exchange) bool { return e.method == "PUT" && len(e.reqBody) > 0 })
	if len(puts) > 0 {
		var total float64
		for _, e := range puts {
			total += float64(len(e.reqBody))
		}
		scratch := storage.NewMemStore()
		st := timeLoop(budget, func() {
			for i, e := range puts {
				scratch.Put(fmt.Sprintf("/replay/%d", i), e.reqBody)
			}
		})
		m["storage.put_ms_per_MB"] = st.seconds * 1e3 / (total / (1 << 20))
		m["storage.put_alloc_B_per_B"] = st.bytes / total
	}
	if lists, _ := cp.listings(); len(lists) > 0 {
		var entries float64
		st := timeLoop(budget, func() {
			entries = 0
			for _, e := range lists {
				infos, _ := store.List(e.path)
				entries += float64(len(infos))
			}
		})
		m["storage.list_us_per_entry"] = ratio(st.seconds*1e6, entries)
	}
}

// replayNetsim measures the fabric itself: process CPU per MiB pushed
// through a LAN-profile connection, and the round trip of a WAN-profile
// one — the link analysis_wan says it ran on.
func replayNetsim(m map[string]float64, budget time.Duration) {
	size, pings := 4<<20, 5
	if budget < 50*time.Millisecond {
		size, pings = 256<<10, 1
	}
	echo := func(prof netsim.Profile, fn func(c net.Conn)) {
		fabric := netsim.New(prof)
		l, err := fabric.Listen("peer:1")
		if err != nil {
			return
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			// Answer every write with one byte once it has fully arrived:
			// the client sends a 4-byte length first.
			var hdr [4]byte
			for {
				if _, err := io.ReadFull(c, hdr[:]); err != nil {
					return
				}
				n := int64(hdr[0])<<24 | int64(hdr[1])<<16 | int64(hdr[2])<<8 | int64(hdr[3])
				if _, err := io.CopyN(io.Discard, c, n); err != nil {
					return
				}
				if _, err := c.Write(hdr[:1]); err != nil {
					return
				}
			}
		}()
		if c, err := fabric.Dial("peer:1"); err == nil {
			fn(c)
			c.Close()
		}
		l.Close()
		<-done
	}
	send := func(c net.Conn, payload []byte) {
		n := len(payload)
		c.Write([]byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)})
		for off := 0; off < n; off += 64 << 10 {
			c.Write(payload[off:min(off+64<<10, n)])
		}
		var ack [1]byte
		io.ReadFull(c, ack[:])
	}
	echo(netsim.LAN(), func(c net.Conn) {
		payload := make([]byte, size)
		cpu0 := processCPU()
		send(c, payload)
		m["netsim.cpu_ms_per_MB"] = (processCPU() - cpu0).Seconds() * 1e3 / (float64(size) / (1 << 20))
	})
	echo(netsim.WAN(), func(c net.Conn) {
		var rtts []float64
		for i := 0; i < pings; i++ {
			t0 := time.Now()
			send(c, nil)
			rtts = append(rtts, time.Since(t0).Seconds()*1e3)
		}
		m["netsim.rtt_ms_measured"] = median(rtts)
	})
}

// replayBlockcache calls the block cache directly. No workload puts it on
// a blocking path (CacheSize is 0 everywhere); these three exist so that a
// later cached re-read workload has a base to compare with.
func replayBlockcache(m map[string]float64, budget time.Duration) {
	const block = 64 << 10
	fetch := func(_ context.Context, _, length int64) ([]byte, error) { return make([]byte, length), nil }
	p := make([]byte, 4<<10)

	hot := blockcache.New(blockcache.Config{Capacity: 64 * block, BlockSize: block})
	const hotSize = 32 * block
	for off := int64(0); off < hotSize; off += block {
		hot.ReadThrough(bg, "k", hotSize, p, off, fetch)
	}
	st := timeLoop(budget, func() {
		for i := 0; i < batch; i++ {
			hot.ReadThrough(bg, "k", hotSize, p, int64(i%32)*block, fetch)
		}
	})
	m["blockcache.hit_ns"] = st.seconds * 1e9 / batch

	cold := blockcache.New(blockcache.Config{Capacity: 4 * block, BlockSize: block})
	next := int64(0)
	st = timeLoop(budget, func() {
		for i := 0; i < 64; i++ {
			// Stride two blocks so no read looks like a sequential scan.
			cold.ReadThrough(bg, "k", 1<<50, p, next, fetch)
			next += 2 * block
		}
	})
	m["blockcache.miss_us"] = st.seconds * 1e6 / 64

	planner := blockcache.NewStridePlanner(4)
	first := int64(0)
	st = timeLoop(budget, func() {
		for i := 0; i < batch; i++ {
			planner.Plan("k", first, first)
			first += 3
		}
	})
	m["blockcache.plan_ns"] = st.seconds * 1e9 / batch
}
