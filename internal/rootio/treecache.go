package rootio

import (
	"context"
	"fmt"
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
// already in flight as background coalesced vectored reads, and each fill
// inflates its own baskets on its own goroutine as soon as its bytes land
// (ROOT's TTreeCacheUnzip), so both transfer and decompression overlap the
// reader's compute and entering a window only publishes what is ready. A
// depth of 0 is the synchronous cache of the paper's HTTP column: every
// fill is one blocking round trip, byte-for-byte the legacy behaviour,
// decoded on the caller's goroutine.
type TreeCache struct {
	reader   *Reader
	branches []int
	window   uint64 // events per fill
	depth    int    // windows prefetched ahead; 0 = synchronous fills

	curStart uint64 // first event of the filled window; curStart==^0 when none
	fills    int64

	// pending holds the in-flight speculative fills for windows after the
	// current one, in ascending window order.
	pending []*pendingFill

	// Speculation accounting: issued counts compressed bytes requested by
	// pipelined (non-demand) fills, wasted the issued bytes discarded
	// before any event consumed them, cancelled the fills cut mid-flight
	// by a pattern jump, a retrain rebuild, or Close.
	issuedBytes    int64
	wastedBytes    int64
	cancelledFills int64
}

// pendingFill is a window fill on its way to the reader's basket cache.
type pendingFill struct {
	start uint64
	keys  []basketKey
	bytes int64
	// done yields the fill's single completion error. A pipelined fill
	// sets events before sending; a synchronous one leaves blobs to be
	// inflated by finishFill.
	done   <-chan error
	events [][][]byte // decoded baskets, aligned with keys
	blobs  [][]byte   // fetched baskets of a synchronous fill, aligned with keys
	// cancel retires a pipelined fill before it is consumed: the fetch is
	// aborted when the source allows it, and the inflate is skipped.
	cancel context.CancelFunc
}

// NewTreeCache creates a TreeCache over r reading the given branch
// positions (nil = all branches) with the given window size in events
// (0 selects 1000). The prefetch depth is automatic: one window ahead when
// the Source provides an asynchronous vectored read, zero (synchronous)
// otherwise — the legacy behaviour. Use NewTreeCacheDepth to pipeline
// deeper.
func NewTreeCache(r *Reader, windowEvents uint64, branches []int) *TreeCache {
	return NewTreeCacheDepth(r, windowEvents, branches, -1)
}

// NewTreeCacheDepth creates a TreeCache with an explicit prefetch depth:
// the number of windows beyond the current one kept in flight. Depth 0
// disables speculation entirely — fills are synchronous and byte-identical
// to the legacy TreeCache. A negative depth selects the automatic default
// (1 with an asynchronous source, else 0). A positive depth needs the
// Source to support asynchronous or hinted prefetch; without either it
// degrades to 0.
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
	async := r.src.ReadVecAsyncCtx != nil
	if depth < 0 {
		if async {
			depth = 1
		} else {
			depth = 0
		}
	}
	if depth > 0 && !async && r.src.Hint == nil {
		depth = 0
	}
	return &TreeCache{
		reader:   r,
		branches: branches,
		window:   windowEvents,
		depth:    depth,
		curStart: ^uint64(0),
	}
}

// Fills reports how many window fetches have been issued (each is one
// network round trip on the davix path).
func (tc *TreeCache) Fills() int64 { return tc.fills }

// PrefetchStats reports the speculation accounting: compressed bytes
// issued by pipelined window fills, issued bytes discarded before any
// event consumed them, and fills cancelled mid-flight.
func (tc *TreeCache) PrefetchStats() (issued, wasted, cancelled int64) {
	return tc.issuedBytes, tc.wastedBytes, tc.cancelledFills
}

// windowKeys computes the basket set covering events [start, start+window).
func (tc *TreeCache) windowKeys(start uint64) ([]basketKey, error) {
	end := start + tc.window
	if end > tc.reader.idx.Events {
		end = tc.reader.idx.Events
	}
	var keys []basketKey
	for _, bi := range tc.branches {
		first, err := tc.reader.basketFor(bi, start)
		if err != nil {
			return nil, err
		}
		last, err := tc.reader.basketFor(bi, end-1)
		if err != nil {
			return nil, err
		}
		for bk := first; bk <= last; bk++ {
			keys = append(keys, basketKey{branch: bi, basket: bk})
		}
	}
	return keys, nil
}

// startFillSync fetches the window at start with one blocking vectored
// read, one range per basket — the legacy synchronous fill, preserved
// byte-for-byte for depth 0.
func (tc *TreeCache) startFillSync(start uint64) (*pendingFill, error) {
	keys, err := tc.windowKeys(start)
	if err != nil {
		return nil, err
	}
	ranges := make([]rangev.Range, len(keys))
	dsts := make([][]byte, len(keys))
	var total int64
	for i, k := range keys {
		b := tc.reader.idx.Branches[k.branch].Baskets[k.basket]
		ranges[i] = rangev.Range{Off: b.Offset, Len: b.CompressedSize}
		dsts[i] = make([]byte, b.CompressedSize)
		total += b.CompressedSize
	}
	tc.fills++
	pf := &pendingFill{start: start, keys: keys, blobs: dsts, bytes: total}
	ch := make(chan error, 1)
	ch <- tc.reader.src.ReadVec(ranges, dsts)
	pf.done = ch
	return pf, nil
}

// coalesceFill lays the window's baskets out as merged read ranges:
// baskets adjacent on disk share one contiguous buffer (and thus one range
// of the vectored request), and each basket's destination is a view into
// its run buffer — no second copy when the fill lands. The run buffers
// come from bufpool; the fill's goroutine returns them.
func coalesceFill(r *Reader, keys []basketKey) (ranges []rangev.Range, runDsts [][]byte, perKey [][]byte, total int64) {
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
		total += b.CompressedSize
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
	return ranges, runDsts, perKey, total
}

// startFillAsync begins fetching the window at start in the background,
// with adjacent basket ranges merged into contiguous reads. The fill's own
// goroutine waits for the fetch, inflates the baskets, hands the run
// buffers back to bufpool — it is their only owner once the fetch has
// returned, whatever the outcome — and only then signals done. It never
// touches the reader's cache: publishing is finishFill's, so a discarded
// fill leaves no trace.
func (tc *TreeCache) startFillAsync(start uint64) (*pendingFill, error) {
	keys, err := tc.windowKeys(start)
	if err != nil {
		return nil, err
	}
	r := tc.reader
	ranges, runDsts, perKey, total := coalesceFill(r, keys)
	tc.fills++
	ctx, cancel := context.WithCancel(context.Background())
	fetched := r.src.ReadVecAsyncCtx(ctx, ranges, runDsts)
	done := make(chan error, 1)
	pf := &pendingFill{start: start, keys: keys, bytes: total, done: done, cancel: cancel}
	go func() {
		err := <-fetched
		if err == nil {
			err = ctx.Err() // discarded meanwhile: nobody will read the baskets
		}
		if err == nil {
			pf.events, err = r.decodeBaskets(keys, perKey)
		}
		for _, buf := range runDsts {
			bufpool.Put(buf)
		}
		done <- err
	}()
	return pf, nil
}

// finishFill waits for pf and publishes its baskets into the reader cache,
// on the caller's goroutine.
func (tc *TreeCache) finishFill(pf *pendingFill) error {
	if err := <-pf.done; err != nil {
		return err
	}
	if pf.blobs != nil {
		var err error
		if pf.events, err = tc.reader.decodeBaskets(pf.keys, pf.blobs); err != nil {
			return err
		}
	}
	tc.reader.publish(pf.keys, pf.events)
	return nil
}

// discard retires an unconsumed speculative fill: the fetch is cancelled
// (when the source allows it) and its bytes are booked as waste.
func (tc *TreeCache) discard(pf *pendingFill) {
	pf.cancel()
	tc.cancelledFills++
	tc.wastedBytes += pf.bytes
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

// enterWindow makes ws the current window: uses the matching pipelined
// fill when one is in flight, cancels fills the access pattern jumped
// away from, tops the pipeline back up, then awaits and publishes ws.
func (tc *TreeCache) enterWindow(ws uint64) error {
	// Evict the previous window's decoded baskets to bound memory.
	tc.reader.DropCache()

	// Partition the in-flight fills: the one for ws is consumed, fills
	// still inside the new lookahead stay, everything else was a pattern
	// jump and is cancelled mid-flight.
	var cur *pendingFill
	horizon := ws + tc.window*uint64(tc.depth)
	keep := tc.pending[:0]
	for _, pf := range tc.pending {
		switch {
		case pf.start == ws:
			cur = pf
		case pf.start > ws && pf.start <= horizon:
			keep = append(keep, pf)
		default:
			tc.discard(pf)
		}
	}
	tc.pending = keep

	var err error
	if cur == nil {
		if tc.depth > 0 && tc.asyncCapable() {
			cur, err = tc.startFillAsync(ws)
		} else {
			cur, err = tc.startFillSync(ws)
		}
		if err != nil {
			return err
		}
	}

	// Overlap: top the pipeline back up before waiting on this window, so
	// the next windows' transfers ride under this window's compute.
	tc.topUp(ws)

	if err := tc.finishFill(cur); err != nil {
		return err
	}
	tc.curStart = ws
	return nil
}

// asyncCapable reports whether the source supports background fills.
func (tc *TreeCache) asyncCapable() bool {
	return tc.reader.src.ReadVecAsyncCtx != nil
}

// topUp issues speculative fills (or layout hints) for the windows
// following ws until the pipeline holds depth windows.
func (tc *TreeCache) topUp(ws uint64) {
	if tc.depth <= 0 {
		return
	}
	async := tc.asyncCapable()
	var hinted []rangev.Range
	for d := 1; d <= tc.depth; d++ {
		nxt := ws + tc.window*uint64(d)
		if nxt >= tc.reader.idx.Events {
			break
		}
		if tc.pendingFor(nxt) != nil {
			continue
		}
		if async {
			pf, err := tc.startFillAsync(nxt)
			if err != nil {
				return // demand fill will surface the problem when reached
			}
			tc.issuedBytes += pf.bytes
			tc.pending = append(tc.pending, pf)
			continue
		}
		// Hint-only source: hand the upcoming basket layout to the
		// planner-backed read-ahead instead of fetching ourselves.
		keys, err := tc.windowKeys(nxt)
		if err != nil {
			return
		}
		for _, k := range keys {
			b := tc.reader.idx.Branches[k.branch].Baskets[k.basket]
			hinted = append(hinted, rangev.Range{Off: b.Offset, Len: b.CompressedSize})
		}
	}
	if len(hinted) > 0 && tc.reader.src.Hint != nil {
		tc.reader.src.Hint(hinted)
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
