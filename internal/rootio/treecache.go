package rootio

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"godavix/internal/bufpool"
	"godavix/internal/rangev"
)

// TreeCache gathers the baskets needed by the next window of events into a
// single vectored read — the TTreeCache role in the paper's Figure 3. The
// davix path turns the gathered request into one HTTP multi-range query;
// the xrootd path into one readv.
//
// With a prefetch depth D > 0 the cache runs the windows as a pipeline:
// while the reader processes window W, the fills for windows W+1..W+D are
// already in flight as background coalesced vectored reads. The lookahead
// ships as two half-horizon requests: g = ⌊(D+1)/2⌋ consecutive windows go
// out as one request once all of them are inside the lookahead (a demand
// fill carries its next g−1 windows), so a round trip carries g windows'
// bytes while at most D windows beyond the current one are in memory. Each
// window of a request keeps its own baskets: the request's goroutine
// inflates them window by window as soon as the bytes land (ROOT's
// TTreeCacheUnzip), so both transfer and decompression overlap the reader's
// compute and entering a window only publishes what is ready.
//
// Every basket is fetched and inflated once: entering a window evicts only
// the baskets it does not need, and a pipelined fill leaves out baskets that
// are resident or brought by a fill for an earlier window, so a basket that
// straddles a window boundary stays resident across it. A TrainingCache
// starts the pipeline during training: its lookahead fills become this
// cache's pending fills, and a demand fill for a window they carry part of
// takes only the rest. A depth of 0 is the synchronous cache of the
// paper's HTTP column: every fill is one blocking round trip for all of
// its window's baskets, byte-for-byte the legacy behaviour, decoded on the
// caller's goroutine.
//
// A payload from Event or Branch aliases its decoded basket, and entering
// a window hands the buffers of every basket it evicts back to their pools
// for the next decode: the payload is valid until the cache enters a
// window that no longer needs its basket. Copy what must outlive that.
// Close releases nothing.
type TreeCache struct {
	reader   *Reader
	branches []int
	window   uint64 // events per window
	depth    int    // windows prefetched ahead; 0 = synchronous fills
	group    int    // windows per pipelined request: ⌊(depth+1)/2⌋

	curStart uint64 // first event of the filled window; curStart==^0 when none
	fills    int64

	// pending holds the in-flight window fills: the current window's while
	// it is being entered, and windows after it. A window may have several,
	// each carrying part of its baskets.
	pending []*pendingFill

	// Speculation accounting: issued counts compressed bytes requested for
	// windows ahead of the one being entered, wasted the issued bytes of
	// windows discarded before any event consumed them, cancelled the
	// requests cut mid-flight because a pattern jump, a retrain rebuild or
	// Close discarded every window they carried.
	issuedBytes    int64
	wastedBytes    int64
	cancelledFills int64
}

// pendingFill is one window's fill on its way to the reader's basket cache.
type pendingFill struct {
	start uint64
	// keys are the baskets this fill brings: all of its window's for a
	// synchronous fill; for a pipelined one, those neither resident nor
	// brought by a fill for an earlier window.
	keys  []basketKey
	bytes int64
	// done yields the fill's single completion error. A pipelined fill
	// sets decoded before sending; a synchronous one leaves blobs to be
	// inflated by finishFill.
	done    chan error
	decoded []*basket // aligned with keys
	blobs   [][]byte  // fetched baskets of a synchronous fill, aligned with keys
	// req is the request a pipelined fill shares with the other windows
	// of its group.
	req *fillRequest
}

// fillRequest is one background vectored read carrying a group of windows.
type fillRequest struct {
	// cancel aborts the fetch (when the source allows it) and skips the
	// inflate; it runs once every window of the request is discarded.
	cancel context.CancelFunc
	live   int // windows not discarded
}

// NewTreeCacheDepth creates a TreeCache over r reading the given branch
// positions (nil = all branches) with the given window size in events (0
// selects 1000) and prefetch depth: the number of windows beyond the
// current one kept in flight, shipped as requests of ⌊(depth+1)/2⌋ windows
// each (depths 1 and 2 send one window per request, depth 3 two). Depth 0
// disables speculation entirely — fills are synchronous and byte-identical
// to the legacy TreeCache. A negative depth selects the automatic default
// (1 with an asynchronous source, else 0). A positive depth needs the
// Source's ReadVecAsyncCtx; without it the depth is 0.
func NewTreeCacheDepth(r *Reader, windowEvents uint64, branches []int, depth int) *TreeCache {
	if windowEvents == 0 {
		windowEvents = 1000
	}
	if branches == nil {
		branches = make([]int, len(r.idx.Branches))
		for i := range branches {
			branches[i] = i
		}
	}
	switch {
	case r.src.ReadVecAsyncCtx == nil:
		depth = 0
	case depth < 0:
		depth = 1
	}
	return &TreeCache{
		reader:   r,
		branches: branches,
		window:   windowEvents,
		depth:    depth,
		group:    (depth + 1) / 2,
		curStart: ^uint64(0),
	}
}

// Fills reports how many fills have been issued. A fill is one vectored
// request (one network round trip on the davix path): one window's at
// depth 0, up to ⌊(depth+1)/2⌋ windows' when pipelined. A pipelined fill
// whose baskets are all resident already completes without touching the
// source. A TrainingCache lookahead that rides a demand read is no fill
// of its own.
func (tc *TreeCache) Fills() int64 { return tc.fills }

// PrefetchStats reports the speculation accounting: compressed bytes
// issued for windows ahead of the one being entered, issued bytes
// discarded before any event consumed them, and requests cancelled
// mid-flight.
func (tc *TreeCache) PrefetchStats() (issued, wasted, cancelled int64) {
	return tc.issuedBytes, tc.wastedBytes, tc.cancelledFills
}

// windowKeys computes the basket set of branches covering events
// [start, start+window), leaving out baskets that begin before event from.
func (tc *TreeCache) windowKeys(start uint64, branches []int, from uint64) ([]basketKey, error) {
	end := start + tc.window
	if end > tc.reader.idx.Events {
		end = tc.reader.idx.Events
	}
	var keys []basketKey
	for _, bi := range branches {
		first, err := tc.reader.basketFor(bi, start)
		if err != nil {
			return nil, err
		}
		last, err := tc.reader.basketFor(bi, end-1)
		if err != nil {
			return nil, err
		}
		for bk := first; bk <= last; bk++ {
			if tc.reader.idx.Branches[bi].Baskets[bk].FirstEvent >= from {
				keys = append(keys, basketKey{branch: bi, basket: bk})
			}
		}
	}
	return keys, nil
}

// startFillSync fetches a window's baskets, all of them, with one blocking
// vectored read, one range per basket — the legacy synchronous fill,
// preserved byte-for-byte for depth 0. The blobs land in bufpool buffers
// that finishFill returns.
func (tc *TreeCache) startFillSync(keys []basketKey) *pendingFill {
	ranges := make([]rangev.Range, len(keys))
	dsts := make([][]byte, len(keys))
	for i, k := range keys {
		b := tc.reader.idx.Branches[k.branch].Baskets[k.basket]
		ranges[i] = rangev.Range{Off: b.Offset, Len: b.CompressedSize}
		dsts[i] = bufpool.Get(int(b.CompressedSize))
	}
	tc.fills++
	pf := &pendingFill{keys: keys, blobs: dsts, done: make(chan error, 1)}
	pf.done <- tc.reader.src.ReadVec(ranges, dsts)
	return pf
}

// coalesceFill lays the fill's baskets out as merged read ranges: baskets
// adjacent on disk share one contiguous buffer (and thus one range of the
// vectored request), and each basket's destination is a view into its run
// buffer — no second copy when the fill lands. The run buffers come from
// bufpool; the fill's goroutine returns them.
func coalesceFill(r *Reader, keys []basketKey) (ranges []rangev.Range, runDsts [][]byte, perKey [][]byte) {
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ba := r.idx.Branches[keys[order[a]].branch].Baskets[keys[order[a]].basket]
		bb := r.idx.Branches[keys[order[b]].branch].Baskets[keys[order[b]].basket]
		return ba.Offset < bb.Offset
	})
	perKey = make([][]byte, len(keys))
	type run struct {
		off, ln int64
		members []int // key indices in disk order
	}
	var runs []run
	for _, ki := range order {
		b := r.idx.Branches[keys[ki].branch].Baskets[keys[ki].basket]
		if n := len(runs); n > 0 && runs[n-1].off+runs[n-1].ln == b.Offset {
			runs[n-1].ln += b.CompressedSize
			runs[n-1].members = append(runs[n-1].members, ki)
			continue
		}
		runs = append(runs, run{off: b.Offset, ln: b.CompressedSize, members: []int{ki}})
	}
	ranges = make([]rangev.Range, len(runs))
	runDsts = make([][]byte, len(runs))
	for i, ru := range runs {
		buf := bufpool.Get(int(ru.ln))
		ranges[i] = rangev.Range{Off: ru.off, Len: ru.ln}
		runDsts[i] = buf
		var at int64
		for _, ki := range ru.members {
			b := r.idx.Branches[keys[ki].branch].Baskets[keys[ki].basket]
			perKey[ki] = buf[at : at+b.CompressedSize]
			at += b.CompressedSize
		}
	}
	return ranges, runDsts, perKey
}

// brought reports whether basket k is resident or brought by an in-flight
// fill for a window at or before start.
func (tc *TreeCache) brought(k basketKey, start uint64) bool {
	if tc.reader.resident(k) {
		return true
	}
	for _, pf := range tc.pending {
		if pf.start <= start && slices.Contains(pf.keys, k) {
			return true
		}
	}
	return false
}

// fillPlan is a group of consecutive windows' fills laid out as one
// coalesced vectored read: keys holds every fill's baskets in window order,
// ranges the merged runs the read asks for, runDsts their bufpool buffers
// and perKey each key's view into them.
type fillPlan struct {
	fills   []*pendingFill
	keys    []basketKey
	ranges  []rangev.Range
	runDsts [][]byte
	perKey  [][]byte
}

// planGroup plans the fills of run, consecutive windows. Each window's fill
// takes the baskets of branches in its window that begin at or after event
// from and neither are resident nor are brought by a fill for run[0] or an
// earlier window, the plan's earlier windows included. A window whose
// basket layout cannot be resolved ends the run before it; planGroup
// returns nil when that leaves nothing to plan.
func (tc *TreeCache) planGroup(run []uint64, branches []int, from uint64) *fillPlan {
	r := tc.reader
	p := &fillPlan{fills: make([]*pendingFill, 0, len(run))}
	for _, start := range run {
		wk, err := tc.windowKeys(start, branches, from)
		if err != nil {
			break // the demand fill will surface the problem when reached
		}
		lo := len(p.keys)
		for _, k := range wk {
			if !tc.brought(k, run[0]) && !slices.Contains(p.keys, k) {
				p.keys = append(p.keys, k)
			}
		}
		pf := &pendingFill{start: start, keys: p.keys[lo:len(p.keys):len(p.keys)], done: make(chan error, 1)}
		for _, k := range pf.keys {
			pf.bytes += r.idx.Branches[k.branch].Baskets[k.basket].CompressedSize
		}
		p.fills = append(p.fills, pf)
	}
	if len(p.fills) == 0 {
		return nil
	}
	p.ranges, p.runDsts, p.perKey = coalesceFill(r, p.keys)
	return p
}

// startGroup sends the plan of run as one background vectored request;
// run[0] is the window being entered when demand is set. It reports false
// when there is nothing to send.
func (tc *TreeCache) startGroup(run []uint64, demand bool, branches []int, from uint64) bool {
	p := tc.planGroup(run, branches, from)
	if p == nil {
		return false
	}
	tc.send(p, demand)
	return true
}

// send launches p as a fill of its own through the source's asynchronous
// read.
func (tc *TreeCache) send(p *fillPlan, demand bool) {
	tc.fills++
	tc.launch(p, demand, func(ctx context.Context) <-chan error {
		return tc.reader.src.ReadVecAsyncCtx(ctx, p.ranges, p.runDsts)
	})
}

// launch registers p's fills as pending and starts their fetch, whose
// single completion fetch returns: a background read of p's own, or the
// outcome of a demand read that carried p's ranges. A fill with no
// baskets needs nothing from the fetch and completes at once, though it
// stays pending for the fetch-once check. The request's own goroutine
// waits for the fetch, inflates the baskets window by window, handing each
// window its result as soon as its baskets are done, and returns the run
// buffers to bufpool — it is their only owner once the fetch has returned,
// whatever the outcome — before it signals the last window. It never
// touches the reader's cache: publishing is finishFill's, so a discarded
// window leaves no trace.
func (tc *TreeCache) launch(p *fillPlan, demand bool, fetch func(context.Context) <-chan error) {
	r := tc.reader
	ctx, cancel := context.WithCancel(context.Background())
	req := &fillRequest{cancel: cancel, live: len(p.fills)}
	for i, pf := range p.fills {
		pf.req = req
		if i > 0 || !demand {
			tc.issuedBytes += pf.bytes
		}
		if len(pf.keys) == 0 {
			pf.done <- nil
		}
		tc.pending = append(tc.pending, pf)
	}
	if len(p.keys) == 0 {
		return
	}
	fetched := fetch(ctx)
	go func() {
		err := <-fetched
		if err == nil {
			err = ctx.Err() // every window discarded meanwhile: nobody will read the baskets
		}
		at := 0
		for _, pf := range p.fills {
			if len(pf.keys) == 0 {
				continue
			}
			werr := err
			if werr == nil {
				pf.decoded, werr = r.decodeBaskets(pf.keys, p.perKey[at:at+len(pf.keys)])
			}
			if at += len(pf.keys); at == len(p.keys) {
				putAll(p.runDsts)
			}
			pf.done <- werr
		}
	}()
}

// finishFill waits for pf and publishes its baskets into the reader cache,
// on the caller's goroutine; a synchronous fill's blobs are inflated here
// and their buffers returned.
func (tc *TreeCache) finishFill(pf *pendingFill) error {
	err := <-pf.done
	if pf.blobs != nil {
		if err == nil {
			pf.decoded, err = tc.reader.decodeBaskets(pf.keys, pf.blobs)
		}
		putAll(pf.blobs)
	}
	if err != nil {
		return err
	}
	tc.reader.publish(pf.keys, pf.decoded)
	return nil
}

// discard retires an unconsumed window fill: its bytes are booked as
// waste, and once no window of its request is left the fetch is cancelled
// (when the source allows it).
func (tc *TreeCache) discard(pf *pendingFill) {
	tc.wastedBytes += pf.bytes
	if pf.req.live--; pf.req.live == 0 {
		pf.req.cancel()
		tc.cancelledFills++
	}
}

// Event returns the selected branches' payloads for event ev. Sequential
// iteration is the optimized path: entering a new window consumes its
// pipelined fill (or triggers one vectored fetch) and tops the pipeline
// back up to the configured depth.
func (tc *TreeCache) Event(ev uint64) ([][]byte, error) {
	if err := tc.seek(ev); err != nil {
		return nil, err
	}
	return tc.reader.ReadEvent(ev, tc.branches)
}

// Branch returns Event(ev)[pos] — the payload of the pos-th selected
// branch — without assembling the other branches: inside the current
// window it allocates nothing.
func (tc *TreeCache) Branch(ev uint64, pos int) ([]byte, error) {
	if pos < 0 || pos >= len(tc.branches) {
		return nil, fmt.Errorf("rootio: branch position %d out of range", pos)
	}
	if err := tc.seek(ev); err != nil {
		return nil, err
	}
	return tc.reader.payload(ev, tc.branches[pos])
}

// seek makes the window holding event ev the current one.
func (tc *TreeCache) seek(ev uint64) error {
	if ev >= tc.reader.idx.Events {
		return fmt.Errorf("rootio: event %d out of range", ev)
	}
	if ws := ev - ev%tc.window; tc.curStart != ws {
		return tc.enterWindow(ws)
	}
	return nil
}

// enterWindow makes ws the current window: evicts the baskets ws does not
// need, uses the fills for ws in flight, discards fills the access pattern
// jumped away from, tops the pipeline back up, then awaits and publishes
// ws. Several fills may carry parts of one window: those a TrainingCache
// sent for it during training, and a demand fill for the rest.
func (tc *TreeCache) enterWindow(ws uint64) error {
	keys, err := tc.windowKeys(ws, tc.branches, 0)
	if err != nil {
		return err
	}
	tc.reader.evict(keys)

	// The fills for ws and those still inside the new lookahead stay (the
	// former visible to topUp's fetch-once check until consumed); anything
	// else was a pattern jump and is discarded.
	horizon := ws + tc.window*uint64(tc.depth)
	keep := tc.pending[:0]
	for _, pf := range tc.pending {
		if pf.start >= ws && pf.start <= horizon {
			keep = append(keep, pf)
		} else {
			tc.discard(pf)
		}
	}
	clear(tc.pending[len(keep):])
	tc.pending = keep

	var cur []*pendingFill
	switch {
	case tc.depth > 0:
		// Overlap: top the pipeline back up before waiting on this window,
		// so the next windows' transfers ride under this window's compute;
		// ws heads the first request unless fills for it are in flight and
		// they bring what is not resident.
		tc.topUp(ws, tc.pendingFor(ws) == nil || slices.ContainsFunc(keys, func(k basketKey) bool { return !tc.brought(k, ws) }))
		for _, pf := range tc.pending {
			if pf.start == ws {
				cur = append(cur, pf)
			}
		}
		tc.pending = slices.DeleteFunc(tc.pending, func(pf *pendingFill) bool { return pf.start == ws })
	default:
		cur = []*pendingFill{tc.startFillSync(keys)}
	}

	// A basket the fill left to the fill of a window the access pattern
	// then skipped is missing; payload fetches it on first use.
	for _, pf := range cur {
		if err := tc.finishFill(pf); err != nil {
			return err
		}
	}
	tc.curStart = ws
	return nil
}

// topUp issues the fills for the windows after ws, up to group consecutive
// windows to a request. A request goes out once all of its windows are
// inside the lookahead (ws+1..ws+depth), or earlier when the window after
// it is already in flight or past the end of the file. With demand set, ws
// itself heads the first request.
func (tc *TreeCache) topUp(ws uint64, demand bool) {
	var run []uint64
	if demand {
		run = append(run, ws)
	}
	issue := func() bool {
		ok := len(run) == 0 || tc.startGroup(run, demand && run[0] == ws, tc.branches, 0)
		run = run[:0]
		return ok
	}
	for d := 1; ; d++ {
		if len(run) == tc.group && !issue() {
			return
		}
		nxt := ws + tc.window*uint64(d)
		if end := nxt >= tc.reader.idx.Events; end || tc.pendingFor(nxt) != nil {
			// Nothing can join the run: send it as it is.
			if !issue() || end {
				return
			}
			continue
		}
		if d > tc.depth {
			return // the run waits for its last windows to enter the lookahead
		}
		run = append(run, nxt)
	}
}

// pendingFor returns the in-flight fill for the window at start, if any.
func (tc *TreeCache) pendingFor(start uint64) *pendingFill {
	for _, pf := range tc.pending {
		if pf.start == start {
			return pf
		}
	}
	return nil
}

// Close abandons and cancels any in-flight prefetch.
func (tc *TreeCache) Close() {
	for _, pf := range tc.pending {
		tc.discard(pf)
	}
	tc.pending = nil
}
