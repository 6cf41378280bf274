package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	davix "godavix"
	"godavix/internal/webdav"
	"godavix/internal/wire"
)

// perLayer lists the per-layer metrics, "layer.metric". Boundary counts
// and spans come from the traced round; the rest are replays: a layer's
// public functions timed on the bytes the recording Dialer and Source
// wrappers captured from this workload. A layer the workload never
// entered, or a replay with no captured input, reads 0.
var perLayer = []metricDef{
	{Name: "bench.compute_share", Unit: "ratio", Better: "higher"},
	{Name: "bench.call_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.call_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.call_tail_pct", Unit: "%", Better: "higher"},
	{Name: "bench.call_samples", Unit: "count", Better: "higher"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "higher"},

	{Name: "rootio.stall_share", Unit: "ratio", Better: "lower"},
	{Name: "rootio.fills_per_job", Unit: "count", Better: "lower"},
	{Name: "rootio.ranges_per_fill", Unit: "count", Better: "higher"},
	{Name: "rootio.inflight_mean", Unit: "count", Better: "higher"},
	{Name: "rootio.mem_us_per_event", Unit: "us", Better: "lower"},
	{Name: "rootio.mem_alloc_B_per_event", Unit: "B", Better: "lower"},

	{Name: "core.open_ms", Unit: "ms", Better: "lower"},
	{Name: "core.readvec_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.self_share", Unit: "ratio", Better: "lower"},
	{Name: "core.retries", Unit: "count", Better: "lower"},
	{Name: "core.failovers", Unit: "count", Better: "lower"},
	{Name: "core.hedges_issued", Unit: "count", Better: "lower"},
	{Name: "core.prefetch_waste_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.kernel_path_ratio", Unit: "ratio", Better: "higher"},

	{Name: "pool.dials_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "pool.reuse_ratio", Unit: "ratio", Better: "higher"},
	{Name: "pool.dial_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "pool.getput_ns_g1", Unit: "ns", Better: "lower"},
	{Name: "pool.getput_ns_g2", Unit: "ns", Better: "lower"},

	{Name: "wire.round_trips_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "wire.ttfb_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.up_bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "wire.down_bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "wire.parse_us_per_resp", Unit: "us", Better: "lower"},
	{Name: "wire.parse_allocs_per_resp", Unit: "count", Better: "lower"},
	{Name: "wire.write_us_per_req", Unit: "us", Better: "lower"},

	{Name: "rangev.frames_per_fill", Unit: "count", Better: "lower"},
	{Name: "rangev.sieve_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "rangev.coalesce_us_per_fill", Unit: "us", Better: "lower"},
	{Name: "rangev.scatter_ms_per_MB", Unit: "ms/MB", Better: "lower"},
	{Name: "rangev.scatter_allocs_per_fill", Unit: "count", Better: "lower"},

	{Name: "webdav.decode_us_per_entry", Unit: "us", Better: "lower"},
	{Name: "webdav.decode_allocs_per_entry", Unit: "count", Better: "lower"},
	{Name: "webdav.body_bytes_per_entry", Unit: "B", Better: "lower"},

	{Name: "digest.sum_ms_per_MB", Unit: "ms/MB", Better: "lower"},
	{Name: "digest.combine_ns", Unit: "ns", Better: "lower"},
	{Name: "bufpool.getput_ns_64K", Unit: "ns", Better: "lower"},

	{Name: "httpserv.get_us_per_req", Unit: "us", Better: "lower"},
	{Name: "httpserv.get_ms_per_MB", Unit: "ms/MB", Better: "lower"},
	{Name: "httpserv.put_ms_per_MB", Unit: "ms/MB", Better: "lower"},
	{Name: "httpserv.propfind_us_per_entry", Unit: "us", Better: "lower"},
	{Name: "httpserv.multirange_us_per_part", Unit: "us", Better: "lower"},
	{Name: "httpserv.shed_total", Unit: "count", Better: "lower"},

	{Name: "storage.get_us", Unit: "us", Better: "lower"},
	{Name: "storage.put_ms_per_MB", Unit: "ms/MB", Better: "lower"},
	{Name: "storage.put_alloc_B_per_B", Unit: "ratio", Better: "lower"},
	{Name: "storage.list_us_per_entry", Unit: "us", Better: "lower"},

	{Name: "netsim.cpu_ms_per_MB", Unit: "ms/MB", Better: "lower"},
	{Name: "netsim.rtt_ms_measured", Unit: "ms", Better: "lower"},

	{Name: "blockcache.hit_ns", Unit: "ns", Better: "lower"},
	{Name: "blockcache.miss_us", Unit: "us", Better: "lower"},
	{Name: "blockcache.plan_ns", Unit: "ns", Better: "lower"},
}

// tracedRound runs one more round of w with the recording wrappers on and
// turns what they saw into the per-layer metrics. plainOps is the
// workload's untraced ops_per_s, the base of the tracing overhead.
func tracedRound(w workload, cfg config, budget time.Duration, plainOps float64) (map[string]float64, roundSample, error) {
	rec := newRecorder(w.name())
	d := w.bed().dialer
	pc0, wc0 := w.counts(), d.counts()
	d.rec.Store(rec)
	rs := runRound(w, budget, cfg.sc.minIters, rec)
	d.rec.Store(nil)
	rec.closeConns()
	pc, wc := w.counts().sub(pc0), d.counts().sub(wc0)
	if cfg.out != "" {
		if err := rec.writeTo(cfg.out); err != nil {
			return nil, rs, err
		}
	}
	m := map[string]float64{}
	for _, def := range perLayer {
		m[def.Name] = 0
	}
	boundaryMetrics(m, w, rec, rs, pc, wc, plainOps)
	replayMetrics(m, w, parseCapture(rec), cfg.replay)
	return m, rs, nil
}

// closeConns ends the recording side of every traced connection, flushing
// the exchange in progress. The connections themselves stay pooled.
func (r *recorder) closeConns() {
	r.mu.Lock()
	conns := r.conns
	r.mu.Unlock()
	for _, c := range conns {
		c.close()
	}
}

func durationsMs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / 1e6
	}
	return out
}

// syncCalls are the core-layer spans during which the calling goroutine
// was blocked in the client.
var syncCalls = []string{"open", "readvec", "download", "upload", "walk", "request"}

// boundaryMetrics fills in everything that comes from the traced round's
// spans and counts.
func boundaryMetrics(m map[string]float64, w workload, rec *recorder, rs roundSample, pc productCounts, wc wireCounts, plainOps float64) {
	var ops float64
	var walls []float64
	for i, it := range rs {
		ops += float64(it.ops)
		if i > 0 { // iteration 0 also captured bytes
			walls = append(walls, it.wall.Seconds())
		}
	}
	perIter := ops / float64(len(rs))
	m["bench.trace_overhead_ratio"] = ratio(ratio(perIter, median(walls)), plainOps)

	// A call is what the user's loop waits for: the stall a window fill
	// imposes on the analysis, else one object, walk or request.
	calls := rec.selectSpans("rootio", "window_stall")
	var blocked []span
	for _, name := range syncCalls {
		blocked = append(blocked, rec.selectSpans("core", name)...)
	}
	if len(calls) == 0 {
		for _, s := range blocked {
			if s.Name != "open" && s.Name != "readvec" {
				calls = append(calls, s)
			}
		}
	}
	ms := durationsMs(calls)
	tail := tailPercentile(len(ms))
	m["bench.call_p50_ms"] = median(ms)
	m["bench.call_tail_ms"] = quantile(ms, tail)
	m["bench.call_tail_pct"] = tail * 100
	m["bench.call_samples"] = float64(len(ms))

	job := pc.jobTraced.Seconds()
	m["bench.compute_share"] = ratio(pc.compute.Seconds(), job)
	m["rootio.stall_share"] = ratio(pc.stall.Seconds(), job)
	m["rootio.fills_per_job"] = ratio(float64(pc.fills), float64(pc.jobs))
	m["rootio.ranges_per_fill"] = ratio(float64(rec.srcRanges.Load()), float64(rec.srcCalls.Load()))
	var inflight time.Duration
	async := rec.selectSpans("core", "readvec_async")
	for _, s := range async {
		inflight += s.dur()
	}
	m["rootio.inflight_mean"] = ratio(inflight.Seconds(), job)

	m["core.open_ms"] = median(durationsMs(rec.selectSpans("core", "open")))
	m["core.readvec_p50_ms"] = median(durationsMs(append(rec.selectSpans("core", "readvec"), async...)))
	m["core.self_share"] = selfShare(blocked, rec.selectSpans("wire", "exchange"))
	m["core.retries"] = float64(pc.retries)
	m["core.failovers"] = float64(pc.failovers)
	m["core.hedges_issued"] = float64(pc.hedges)
	m["core.prefetch_waste_ratio"] = ratio(float64(pc.prefetchWasted), float64(pc.prefetchIssued))
	m["core.kernel_path_ratio"] = ratio(float64(pc.kernelBytes), float64(pc.kernelBytes+pc.pooledBytes))

	m["pool.dials_per_kop"] = ratio(float64(wc.dials), ops/1e3)
	m["pool.reuse_ratio"] = 1 - ratio(float64(wc.dials), float64(wc.roundTrips))
	m["pool.dial_ms_p50"] = median(durationsMs(rec.selectSpans("pool", "dial")))

	m["wire.round_trips_per_kop"] = ratio(float64(wc.roundTrips), ops/1e3)
	m["wire.ttfb_p50_ms"] = median(durationsMs(rec.selectSpans("wire", "ttfb")))
	m["wire.up_bytes_per_op"] = ratio(float64(wc.up), ops)
	m["wire.down_bytes_per_op"] = ratio(float64(wc.down), ops)

	m["httpserv.shed_total"] = w.bed().shedTotal()
}

// selfShare is the share of caller-blocked time during which no connection
// was waiting on or moving bytes: what is left is the client's own work
// (and the scheduler's). busy are the wire exchange spans.
func selfShare(blocked, busy []span) float64 {
	sort.Slice(busy, func(a, b int) bool { return busy[a].StartNs < busy[b].StartNs })
	// Merge the busy intervals into a disjoint ascending union.
	var union [][2]int64
	for _, s := range busy {
		if n := len(union); n > 0 && s.StartNs <= union[n-1][1] {
			union[n-1][1] = max(union[n-1][1], s.EndNs)
			continue
		}
		union = append(union, [2]int64{s.StartNs, s.EndNs})
	}
	var total, covered int64
	for _, s := range blocked {
		total += s.EndNs - s.StartNs
		i := sort.Search(len(union), func(i int) bool { return union[i][1] > s.StartNs })
		for ; i < len(union) && union[i][0] < s.EndNs; i++ {
			covered += min(union[i][1], s.EndNs) - max(union[i][0], s.StartNs)
		}
	}
	return 1 - ratio(float64(covered), float64(total))
}

// exchange is one request and its final response, parsed back out of a
// captured connection.
type exchange struct {
	method       string
	host, target string // as the request named them
	path         string // target without the query
	reqHeader    http.Header
	reqBody      []byte
	rawReq       []byte // request line, headers and body exactly as sent
	status       int
	respHeader   wire.Header
	respBody     []byte
}

// capturedConn is one connection's share of the capture iteration.
type capturedConn struct {
	down      []byte
	methods   []string // one per response on the wire, interim ones included
	exchanges []exchange
}

// capture is what the replays run on.
type capture struct {
	conns   []capturedConn
	vectors [][]davix.Range
}

// all keeps every exchange.
func all(*exchange) bool { return true }

// listings returns the captured PROPFIND exchanges and the number of
// entries their multistatus bodies hold.
func (c *capture) listings() (lists []*exchange, entries float64) {
	lists = c.exchanges(func(e *exchange) bool { return e.method == "PROPFIND" && e.status == 207 })
	for _, e := range lists {
		es, _ := webdav.DecodeMultistatusStream(bytes.NewReader(e.respBody))
		entries += float64(len(es))
	}
	return lists, entries
}

func (c *capture) exchanges(keep func(*exchange) bool) []*exchange {
	var out []*exchange
	for i := range c.conns {
		for j := range c.conns[i].exchanges {
			if e := &c.conns[i].exchanges[j]; keep(e) {
				out = append(out, e)
			}
		}
	}
	return out
}

// parseCapture splits every captured connection back into exchanges. The
// request side is parsed with net/http, the response side with the
// product's own wire.ReadResponse (net/http is the independent party only
// where the product has no parser). A connection cut mid-exchange — a
// cancelled prefetch — keeps the exchanges before the cut.
func parseCapture(rec *recorder) *capture {
	rec.mu.Lock()
	conns, vectors := rec.conns, rec.vectors
	rec.mu.Unlock()
	cp := &capture{vectors: vectors}
	for _, c := range conns {
		c.mu.Lock()
		up, down := c.up, c.down
		c.mu.Unlock()
		if len(up) == 0 {
			continue
		}
		cc := capturedConn{down: down}
		upSrc := bytes.NewReader(up)
		upBuf := bufio.NewReader(upSrc)
		downBuf := bufio.NewReader(bytes.NewReader(down))
		for {
			startOff := len(up) - upSrc.Len() - upBuf.Buffered()
			req, err := http.ReadRequest(upBuf)
			if err != nil {
				break
			}
			body, err := io.ReadAll(req.Body)
			if err != nil {
				break
			}
			endOff := len(up) - upSrc.Len() - upBuf.Buffered()
			ex := exchange{
				method: req.Method, host: req.Host, target: req.RequestURI, path: req.URL.Path, reqHeader: req.Header,
				reqBody: body, rawReq: up[startOff:endOff],
			}
			var resp *wire.Response
			n := 0
			for resp == nil || resp.StatusCode/100 == 1 {
				if resp, err = wire.ReadResponse(downBuf, req.Method); err != nil {
					break
				}
				n++
			}
			if err != nil {
				break
			}
			if ex.respBody, err = resp.ReadAll(); err != nil {
				break
			}
			ex.status, ex.respHeader = resp.StatusCode, resp.Header
			for ; n > 0; n-- {
				cc.methods = append(cc.methods, req.Method)
			}
			cc.exchanges = append(cc.exchanges, ex)
		}
		cp.conns = append(cp.conns, cc)
	}
	return cp
}

// rangeParts parses "bytes=a-b,c-d" into the number of parts and the bytes
// they cover; 0, 0 for anything else.
func rangeParts(v string) (parts int, total int64) {
	spec, ok := strings.CutPrefix(v, "bytes=")
	if !ok {
		return 0, 0
	}
	for _, p := range strings.Split(spec, ",") {
		lo, hi, _ := strings.Cut(p, "-")
		a, errA := strconv.ParseUint(lo, 10, 63)
		b, errB := strconv.ParseUint(hi, 10, 63)
		if errA != nil || errB != nil || b < a {
			return 0, 0
		}
		parts++
		total += int64(b - a + 1)
	}
	return parts, total
}
