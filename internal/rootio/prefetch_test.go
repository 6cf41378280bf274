package rootio

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"godavix/internal/rangev"
)

// asyncCtxSource wraps a byte-image source with a context-aware
// asynchronous vectored read that records every fill's context and tracks
// how many fills are in flight at once.
type asyncCtxSource struct {
	mu    sync.Mutex
	ctxs  []context.Context
	cur   int64
	max   int64
	delay time.Duration
}

func (a *asyncCtxSource) source(img []byte) Source {
	src := BytesSource(img)
	sync := src.ReadVec
	src.ReadVecAsyncCtx = func(ctx context.Context, ranges []rangev.Range, dsts [][]byte) <-chan error {
		a.mu.Lock()
		a.ctxs = append(a.ctxs, ctx)
		a.cur++
		if a.cur > a.max {
			a.max = a.cur
		}
		a.mu.Unlock()
		ch := make(chan error, 1)
		go func() {
			defer func() {
				a.mu.Lock()
				a.cur--
				a.mu.Unlock()
			}()
			if a.delay > 0 {
				select {
				case <-time.After(a.delay):
				case <-ctx.Done():
					ch <- ctx.Err()
					return
				}
			}
			ch <- sync(ranges, dsts)
		}()
		return ch
	}
	return src
}

func (a *asyncCtxSource) maxInFlight() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.max
}

func (a *asyncCtxSource) cancelledCtxs() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, ctx := range a.ctxs {
		if ctx.Err() != nil {
			n++
		}
	}
	return n
}

// TestTreeCacheDepthZeroByteForByte: with depth 0 the cache must put
// exactly the legacy synchronous request stream on the wire — same calls,
// same ranges, same order — even when the source offers the async path.
func TestTreeCacheDepthZeroByteForByte(t *testing.T) {
	events := randomEvents(31, 1500, 3, 32)
	img := buildFile(t, []string{"a", "b", "c"}, events, WriterOptions{EventsPerBasket: 128})

	record := func(src Source, log *[][]rangev.Range) Source {
		inner := src.ReadVec
		src.ReadVec = func(ranges []rangev.Range, dsts [][]byte) error {
			*log = append(*log, append([]rangev.Range(nil), ranges...))
			return inner(ranges, dsts)
		}
		return src
	}

	var legacyLog, depthLog [][]rangev.Range
	r1, err := OpenReader(record(BytesSource(img), &legacyLog))
	if err != nil {
		t.Fatal(err)
	}
	tc1 := NewTreeCacheDepth(r1, 400, nil, -1) // sync-only source: automatic depth 0
	defer tc1.Close()

	var asyncCalls atomic.Int64
	src2 := record(BytesSource(img), &depthLog)
	src2.ReadVecAsyncCtx = func(context.Context, []rangev.Range, [][]byte) <-chan error {
		asyncCalls.Add(1)
		ch := make(chan error, 1)
		ch <- errors.New("async path must not be used at depth 0")
		return ch
	}
	r2, err := OpenReader(src2)
	if err != nil {
		t.Fatal(err)
	}
	tc2 := NewTreeCacheDepth(r2, 400, nil, 0)
	defer tc2.Close()

	legacyLog, depthLog = nil, nil // ignore open-time reads
	for ev := uint64(0); ev < 1500; ev++ {
		want, err := tc1.Event(ev)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc2.Event(ev)
		if err != nil {
			t.Fatal(err)
		}
		for b := range want {
			if !bytes.Equal(want[b], got[b]) {
				t.Fatalf("event %d branch %d mismatch", ev, b)
			}
		}
	}
	if asyncCalls.Load() != 0 {
		t.Fatalf("depth 0 used the async path %d times", asyncCalls.Load())
	}
	if !reflect.DeepEqual(legacyLog, depthLog) {
		t.Fatalf("depth 0 wire stream differs from legacy: %d vs %d calls", len(depthLog), len(legacyLog))
	}
	if issued, wasted, cancelled := tc2.PrefetchStats(); issued != 0 || wasted != 0 || cancelled != 0 {
		t.Fatalf("depth 0 booked speculation: issued=%d wasted=%d cancelled=%d", issued, wasted, cancelled)
	}
}

// TestTreeCachePipelineKeepsWindowsInFlight: a sequential scan must hold
// several windows in flight at once, send ⌊(depth+1)/2⌋ windows per
// request, read back correctly, and waste nothing.
func TestTreeCachePipelineKeepsWindowsInFlight(t *testing.T) {
	events := randomEvents(32, 2048, 2, 32)
	img := buildFile(t, []string{"a", "b"}, events, WriterOptions{EventsPerBasket: 64})

	// 8 windows of 256 events; a request carries up to group windows.
	for _, c := range []struct{ depth, fills int }{{1, 8}, {2, 8}, {3, 4}, {4, 4}, {6, 3}} {
		a := &asyncCtxSource{delay: 2 * time.Millisecond}
		r, err := OpenReader(a.source(img))
		if err != nil {
			t.Fatal(err)
		}
		tc := NewTreeCacheDepth(r, 256, nil, c.depth)
		for ev := uint64(0); ev < 2048; ev++ {
			got, err := tc.Event(ev)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[0], events[ev][0]) || !bytes.Equal(got[1], events[ev][1]) {
				t.Fatalf("depth %d: event %d mismatch under pipelining", c.depth, ev)
			}
			if n := len(tc.pending); n > c.depth {
				t.Fatalf("depth %d: %d windows in flight at event %d", c.depth, n, ev)
			}
		}
		tc.Close()
		if got := a.maxInFlight(); got < 2 {
			t.Fatalf("depth %d: pipeline never overlapped fills: max in flight = %d", c.depth, got)
		}
		if got := tc.Fills(); got != int64(c.fills) {
			t.Fatalf("depth %d: fills = %d, want %d", c.depth, got, c.fills)
		}
		issued, wasted, cancelled := tc.PrefetchStats()
		if issued == 0 {
			t.Fatalf("depth %d: no speculative bytes issued", c.depth)
		}
		if wasted != 0 || cancelled != 0 {
			t.Fatalf("depth %d: sequential scan wasted speculation: wasted=%d cancelled=%d", c.depth, wasted, cancelled)
		}
	}
}

// TestTreeCacheCancelsFillsOnPatternJump: jumping away from the predicted
// windows must book their bytes as waste and cancel every request none of
// whose windows is left — a request that carried the window just read is
// not one.
func TestTreeCacheCancelsFillsOnPatternJump(t *testing.T) {
	events := randomEvents(33, 2000, 2, 32)
	img := buildFile(t, []string{"a", "b"}, events, WriterOptions{EventsPerBasket: 64})

	for _, c := range []struct {
		depth, cancelled int
		why              string
	}{
		{2, 2, "requests {1} and {2}"},
		{4, 1, "request {2,3}; {0,1} carried window 0"},
	} {
		a := &asyncCtxSource{}
		r, err := OpenReader(a.source(img))
		if err != nil {
			t.Fatal(err)
		}
		tc := NewTreeCacheDepth(r, 200, nil, c.depth)
		if _, err := tc.Event(0); err != nil { // window 0 + fills for windows 1..3 at most
			t.Fatal(err)
		}
		got, err := tc.Event(1800) // far jump: windows 1..3 are now dead weight
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[0], events[1800][0]) {
			t.Fatalf("depth %d: post-jump event mismatch", c.depth)
		}
		issued, wasted, cancelled := tc.PrefetchStats()
		if cancelled != int64(c.cancelled) {
			t.Fatalf("depth %d: jump cancelled %d requests, want %d (%s)", c.depth, cancelled, c.cancelled, c.why)
		}
		if wasted == 0 || wasted > issued {
			t.Fatalf("depth %d: waste accounting off: issued=%d wasted=%d", c.depth, issued, wasted)
		}
		if got := a.cancelledCtxs(); got != c.cancelled {
			t.Fatalf("depth %d: %d fill contexts cancelled, want %d (%s)", c.depth, got, c.cancelled, c.why)
		}
		tc.Close()
	}
}

// TestTrainingCacheRetrainCancelsPendingFills: a post-training branch miss
// rebuilds the window cache; the fills in flight for the stale branch set
// must be cancelled, and the widened set must read correctly afterwards.
func TestTrainingCacheRetrainCancelsPendingFills(t *testing.T) {
	for _, depth := range []int{2, 3} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) { retrainCancelsPendingFills(t, depth) })
	}
}

func retrainCancelsPendingFills(t *testing.T, depth int) {
	events := randomEvents(34, 1200, 3, 32)
	img := buildFile(t, []string{"a", "b", "c"}, events, WriterOptions{EventsPerBasket: 64})

	a := &asyncCtxSource{}
	r, err := OpenReader(a.source(img))
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrainingCacheDepth(r, 50, 200, depth)
	defer tr.Close()

	// Train on branch 0 only, then read on into window 2, past the windows
	// the training lookahead carried, so the pipeline has speculative fills
	// of its own in flight for the learned {0} set.
	for ev := uint64(0); ev <= 400; ev++ {
		p, err := tr.Branch(ev, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, events[ev][0]) {
			t.Fatalf("event %d branch 0 mismatch", ev)
		}
	}
	if !tr.Trained() {
		t.Fatal("not trained after the training window")
	}
	before := a.cancelledCtxs()

	// First touch of branch 2 after training: transparent retrain.
	p, err := tr.Branch(401, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, events[401][2]) {
		t.Fatal("late-discovered branch mismatch")
	}
	if tr.Retrains() != 1 {
		t.Fatalf("retrains = %d, want 1", tr.Retrains())
	}
	if after := a.cancelledCtxs(); after <= before {
		t.Fatalf("retrain did not cancel stale in-flight fills (%d before, %d after)", before, after)
	}

	// The widened branch set keeps serving correctly across windows.
	for ev := uint64(402); ev < 1200; ev += 97 {
		for _, bi := range []int{0, 2} {
			p, err := tr.Branch(ev, bi)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(p, events[ev][bi]) {
				t.Fatalf("event %d branch %d mismatch after retrain", ev, bi)
			}
		}
	}
}

// gatedSource is an asynchronous source whose fetches land only once the
// test opens the gate. Completions are handed over on an unbuffered
// channel, so a token on delivered means the fill's goroutine holds the
// fetch result and is about to inflate (or is inflating) its baskets.
type gatedSource struct {
	gate      chan struct{}
	delivered chan struct{}
	ungated   func(call int) bool // fetches let straight through, by 1-based ordinal
	calls     atomic.Int64
	ctxs      []context.Context // every fetch's, in issue order (fills issue on the caller's goroutine)
}

func (g *gatedSource) source(img []byte) Source {
	src := BytesSource(img)
	read := src.ReadVec
	src.ReadVecAsyncCtx = func(ctx context.Context, ranges []rangev.Range, dsts [][]byte) <-chan error {
		g.ctxs = append(g.ctxs, ctx)
		gate := g.gate
		if g.ungated(int(g.calls.Add(1))) {
			gate = nil
		}
		ch := make(chan error)
		go func() {
			var err error
			if gate != nil {
				select {
				case <-gate:
				case <-ctx.Done():
					err = ctx.Err()
				}
			}
			if err == nil {
				err = read(ranges, dsts)
			}
			ch <- err
			if gate != nil {
				g.delivered <- struct{}{}
			}
		}()
		return ch
	}
	return src
}

// residentKeys lists the decoded baskets in the reader cache, sorted.
func residentKeys(r *Reader) []basketKey {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]basketKey, 0, len(r.cache))
	for k := range r.cache {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].branch != keys[j].branch {
			return keys[i].branch < keys[j].branch
		}
		return keys[i].basket < keys[j].basket
	})
	return keys
}

// TestDiscardedFillNeverPublishes: a speculative fill retired by a pattern
// jump, a retrain or Close — while its fetch is still out, or after the
// fetch has landed and its goroutine is inflating — must leave the
// reader's basket cache to the windows actually entered, and its
// goroutine must exit.
func TestDiscardedFillNeverPublishes(t *testing.T) {
	events := randomEvents(35, 1600, 3, 256)
	img := buildFile(t, []string{"a", "b", "c"}, events, WriterOptions{EventsPerBasket: 64})

	// Fetch 1 is the training lookahead, windows 0 to depth. At depth 2,
	// fetches 2 and 3 are the fills for windows 3 and 4 that get retired, 4
	// the demand fill of whatever window is entered after that. At depth 3
	// fetch 2 carries windows 4 and 5, and 3 is the next demand fill;
	// window 3 is retired although its bytes are in, and only request 2 is
	// cancelled.
	for _, c := range []discardCase{
		{prefix: "", depth: 2, gated: 2, windows: 2, reqs: 2, demandAfter: 4},
		{prefix: "depth=3/", depth: 3, gated: 1, windows: 3, reqs: 1, demandAfter: 3},
	} {
		for _, landed := range []bool{false, true} {
			for _, how := range []string{"jump", "retrain", "close"} {
				t.Run(fmt.Sprintf("%s%s/landed=%v", c.prefix, how, landed), func(t *testing.T) {
					discardedFillNeverPublishes(t, events, img, c, how, landed)
				})
			}
		}
	}
}

// discardCase is one depth of TestDiscardedFillNeverPublishes. Once window
// 2 is entered, windows windows are in flight, carried by gated fetches
// held at the gate and, at depth 3, the landed lookahead; retiring them
// cancels reqs requests, and the next demand fill is fetch number
// demandAfter.
type discardCase struct {
	prefix                                   string
	depth, gated, windows, reqs, demandAfter int
}

func discardedFillNeverPublishes(t *testing.T, events [][][]byte, img []byte, c discardCase, how string, landed bool) {
	base := runtime.NumGoroutine()
	g := &gatedSource{
		gate:      make(chan struct{}),
		delivered: make(chan struct{}, 16), // more than the fetches a scenario gates
		ungated:   func(call int) bool { return call == 1 || call == c.demandAfter },
	}
	r, err := OpenReader(g.source(img))
	if err != nil {
		t.Fatal(err)
	}
	branch := func(tr *TrainingCache, ev uint64, bi int) {
		t.Helper()
		p, err := tr.Branch(ev, bi)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, events[ev][bi]) {
			t.Fatalf("event %d branch %d mismatch", ev, bi)
		}
	}
	// Train on branch 0 (synchronous demand reads), then read on until
	// event 256 enters window 2, past the windows the lookahead carried.
	tr := NewTrainingCacheDepth(r, 10, 128, c.depth)
	for ev := uint64(0); ev <= 256; ev++ {
		branch(tr, ev, 0)
	}
	if n := len(tr.tc.pending); n != c.windows {
		t.Fatalf("%d windows in flight after entering window 2, want %d", n, c.windows)
	}
	want := residentKeys(r)
	if landed {
		close(g.gate)
		for i := 0; i < c.gated; i++ {
			<-g.delivered
		}
	}

	switch how {
	case "jump":
		branch(tr, 1500, 0)
	case "retrain":
		branch(tr, 11, 2)
	case "close":
		tr.Close()
	}
	if how != "close" {
		if want, err = tr.tc.windowKeys(tr.tc.curStart, tr.tc.branches, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := residentKeys(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("resident baskets %v, want exactly the entered window's %v", got, want)
	}
	if _, wasted, cancelled := tr.PrefetchStats(); how != "retrain" && (cancelled != int64(c.reqs) || wasted == 0) {
		t.Fatalf("%d requests booked as cancelled, %d bytes as waste; want %d and some", cancelled, wasted, c.reqs)
	}

	tr.Close()
	if got := residentKeys(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("Close changed the resident baskets: %v, want %v", got, want)
	}
	waitGoroutines(t, base)
}

// waitGoroutines fails t unless the goroutine count falls back to base
// within five seconds: a fill's goroutine outlived its TreeCache.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Close, %d before the scenario: a fill leaked", n, base)
	}
}

// TestGroupedFillCancelledOnlyWithEveryWindow: at depth 3 two windows share
// one request. Discarding one of them books its bytes as waste but leaves
// the fetch alive for its sibling; discarding both cancels the shared
// context exactly once.
func TestGroupedFillCancelledOnlyWithEveryWindow(t *testing.T) {
	events := randomEvents(40, 1600, 2, 64)
	img := buildFile(t, []string{"a", "b"}, events, WriterOptions{EventsPerBasket: 64})

	for _, how := range []string{"sibling", "both", "close"} {
		t.Run(how, func(t *testing.T) {
			base := runtime.NumGoroutine()
			// Fetch 1 carries windows 0 and 1, fetch 2 windows 2 and 3.
			g := &gatedSource{
				gate:      make(chan struct{}),
				delivered: make(chan struct{}, 16),
				ungated:   func(call int) bool { return call != 2 },
			}
			r, err := OpenReader(g.source(img))
			if err != nil {
				t.Fatal(err)
			}
			cancelled := func() (n int) {
				for _, ctx := range g.ctxs {
					if ctx.Err() != nil {
						n++
					}
				}
				return n
			}
			tc := NewTreeCacheDepth(r, 100, nil, 3)
			if _, err := tc.Event(0); err != nil {
				t.Fatal(err)
			}
			if len(g.ctxs) != 2 || len(tc.pending) != 3 {
				t.Fatalf("%d requests for %d windows in flight after window 0, want 2 for 3", len(g.ctxs), len(tc.pending))
			}
			w1, w2 := tc.pendingFor(100).bytes, tc.pendingFor(200).bytes

			var wantCancelled int
			switch how {
			case "sibling":
				// Skip to window 3: windows 1 and 2 are discarded, and the
				// request carrying 2 must still deliver 3.
				close(g.gate)
				got, err := tc.Event(300)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got[1], events[300][1]) {
					t.Fatal("window 3 mismatch after its sibling was discarded")
				}
				if _, wasted, _ := tc.PrefetchStats(); wasted != w1+w2 {
					t.Fatalf("wasted %d bytes, want windows 1 and 2's %d", wasted, w1+w2)
				}
			case "both":
				// A far jump discards windows 1, 2 and 3: request 2 goes.
				if _, err := tc.Event(1500); err != nil {
					t.Fatal(err)
				}
				wantCancelled = 1
			case "close":
				tc.Close()
				wantCancelled = 1
			}
			if _, _, n := tc.PrefetchStats(); n != int64(wantCancelled) {
				t.Fatalf("%d requests booked as cancelled, want %d", n, wantCancelled)
			}
			if n := cancelled(); n != wantCancelled {
				t.Fatalf("%d request contexts cancelled, want %d", n, wantCancelled)
			}
			tc.Close()
			if how == "sibling" && g.ctxs[1].Err() != nil {
				t.Fatal("Close cancelled the request whose window 3 was read")
			}
			waitGoroutines(t, base)
		})
	}
}

// TestSpeculativeCorruptBasketErrorsOnEntry: a basket that fails to
// inflate in the fill for window W+2 is the error of the first call that
// enters W+2 — not of any call before it, although its fill failed in the
// background long before.
func TestSpeculativeCorruptBasketErrorsOnEntry(t *testing.T) {
	events := randomEvents(36, 512, 2, 64)
	img := buildFile(t, []string{"a", "b"}, events, WriterOptions{EventsPerBasket: 64})
	r0, err := OpenReader(BytesSource(img))
	if err != nil {
		t.Fatal(err)
	}
	b := r0.Index().Branches[1].Baskets[2] // events 128..191 of branch 1
	for i := int64(2); i < 32; i++ {
		img[b.Offset+i] ^= 0xff
	}

	a := &asyncCtxSource{}
	r, err := OpenReader(a.source(img))
	if err != nil {
		t.Fatal(err)
	}
	tc := NewTreeCacheDepth(r, 64, nil, 3)
	defer tc.Close()
	for ev := uint64(0); ev < 128; ev++ {
		for pos := 0; pos < 2; pos++ {
			p, err := tc.Branch(ev, pos)
			if err != nil {
				t.Fatalf("event %d, two windows before the damage: %v", ev, err)
			}
			if !bytes.Equal(p, events[ev][pos]) {
				t.Fatalf("event %d branch %d mismatch", ev, pos)
			}
		}
	}
	// Branch 0 of event 128 is intact, but it is the call that enters the
	// window, and the window's fill is one unit.
	if _, err := tc.Branch(128, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("entering the damaged window: err = %v, want ErrCorrupt", err)
	}
}

// TestTreeCacheBranchEqualsEvent: Branch(ev, pos) is Event(ev)[pos], on a
// random access pattern and with a window that straddles basket boundaries.
func TestTreeCacheBranchEqualsEvent(t *testing.T) {
	events := randomEvents(37, 1000, 3, 48)
	img := buildFile(t, []string{"a", "b", "c"}, events, WriterOptions{EventsPerBasket: 64})
	sel := []int{0, 2}

	r1, err := OpenReader(BytesSource(img))
	if err != nil {
		t.Fatal(err)
	}
	whole := NewTreeCacheDepth(r1, 100, sel, 0)
	defer whole.Close()
	a := &asyncCtxSource{}
	r2, err := OpenReader(a.source(img))
	if err != nil {
		t.Fatal(err)
	}
	single := NewTreeCacheDepth(r2, 100, sel, 2)
	defer single.Close()

	rng := rand.New(rand.NewSource(37))
	ev := uint64(0)
	for i := 0; i < 600; i++ {
		// Mostly short forward steps, now and then a jump anywhere.
		if rng.Intn(10) == 0 {
			ev = uint64(rng.Intn(1000))
		} else {
			ev = (ev + uint64(rng.Intn(40))) % 1000
		}
		pos := rng.Intn(len(sel))
		want, err := whole.Event(ev)
		if err != nil {
			t.Fatal(err)
		}
		got, err := single.Branch(ev, pos)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[pos]) || !bytes.Equal(got, events[ev][sel[pos]]) {
			t.Fatalf("event %d position %d: Branch != Event[pos]", ev, pos)
		}
	}
	if _, err := single.Branch(0, len(sel)); err == nil {
		t.Fatal("position past the selection accepted")
	}
}

// TestWindowPipelineFetchesEachBasketOnce: on the analysis benchmark's
// dataset, selection and training phase, a pipelined scan requests every
// basket it touches exactly once, whether windows straddle baskets (100,
// 1000) or align with them (256) — window 0 is not fetched again after
// training — and depth 3 ships the 47 windows of 256 events in 23
// background requests: the lookahead's one, sent with training's first
// branch, and 22 of the pipeline; the other branches' lookahead rides
// their training demand reads. The baskets held, resident or in flight, never outgrow the
// current window plus the lookahead.
func TestWindowPipelineFetchesEachBasketOnce(t *testing.T) {
	img := scanImage(t, 12000)
	var requested atomic.Int64
	src := goSource(img)
	read, readAsync := src.ReadVec, src.ReadVecAsyncCtx
	count := func(ranges []rangev.Range) {
		for _, rg := range ranges {
			requested.Add(rg.Len)
		}
	}
	src.ReadVec = func(ranges []rangev.Range, dsts [][]byte) error {
		count(ranges)
		return read(ranges, dsts)
	}
	src.ReadVecAsyncCtx = func(ctx context.Context, ranges []rangev.Range, dsts [][]byte) <-chan error {
		count(ranges)
		return readAsync(ctx, ranges, dsts)
	}

	for _, window := range []uint64{100, 256, 1000} {
		for _, depth := range []int{1, 3} {
			r, err := OpenReader(src)
			if err != nil {
				t.Fatal(err)
			}
			var touched int64
			for _, bi := range scanBranches {
				for _, b := range r.idx.Branches[bi].Baskets {
					touched += b.CompressedSize
				}
			}
			requested.Store(0)
			tr := NewTrainingCacheDepth(r, 100, window, depth)
			for ev := uint64(0); ev < r.Events(); ev++ {
				for _, bi := range scanBranches {
					p, err := tr.Branch(ev, bi)
					if err != nil {
						t.Fatal(err)
					}
					if !VerifyPayload(p, ev, bi) {
						t.Fatalf("window %d depth %d: event %d branch %d: wrong payload", window, depth, ev, bi)
					}
				}
				if tr.tc != nil && ev == tr.tc.curStart {
					checkPipelineMemory(t, tr.tc)
				}
			}
			if got := requested.Load(); got != touched {
				t.Errorf("window %d depth %d: requested %d of %d touched basket bytes (%.2fx), want 1.00x",
					window, depth, got, touched, float64(got)/float64(touched))
			}
			if _, wasted, _ := tr.PrefetchStats(); wasted != 0 {
				t.Errorf("window %d depth %d: sequential scan wasted %d bytes", window, depth, wasted)
			}
			if want := map[int]int64{1: 46, 3: 23}[depth]; window == 256 && tr.Fills() != want {
				t.Errorf("depth %d: %d fills per job, want %d", depth, tr.Fills(), want)
			}
			tr.Close()
		}
	}
}

// checkPipelineMemory fails t unless every basket tc holds — decoded in
// the reader's cache or owned by an in-flight fill — belongs to the current
// window or one of the depth windows after it, and tc holds no more of them
// than those windows have baskets. A sequential scan holds each basket
// once; after a jump back a kept fill may hold a second copy of one.
func checkPipelineMemory(t *testing.T, tc *TreeCache) {
	t.Helper()
	bound := map[basketKey]bool{}
	var perWindow int
	for d := 0; d <= tc.depth; d++ {
		start := tc.curStart + tc.window*uint64(d)
		if start >= tc.reader.Events() {
			break
		}
		keys, err := tc.windowKeys(start, tc.branches, 0)
		if err != nil {
			t.Fatal(err)
		}
		perWindow += len(keys)
		for _, k := range keys {
			bound[k] = true
		}
	}
	held := residentKeys(tc.reader)
	for _, pf := range tc.pending {
		held = append(held, pf.keys...)
	}
	for _, k := range held {
		if !bound[k] {
			t.Fatalf("window at %d, depth %d: holds basket %v of no window in the lookahead", tc.curStart, tc.depth, k)
		}
	}
	if len(held) > perWindow {
		t.Fatalf("window at %d, depth %d: %d baskets held, the windows have %d", tc.curStart, tc.depth, len(held), perWindow)
	}
}
