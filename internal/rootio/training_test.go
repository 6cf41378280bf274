package rootio

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"godavix/internal/rangev"
)

func TestTrainingCacheLearnsBranchSet(t *testing.T) {
	events := randomEvents(20, 1000, 6, 32)
	branches := []string{"px", "py", "pz", "E", "jets", "met"}
	img := buildFile(t, branches, events, WriterOptions{EventsPerBasket: 100})

	var bytesRead atomic.Int64
	src := BytesSource(img)
	inner := src.ReadVec
	src.ReadVec = func(ranges []rangev.Range, dsts [][]byte) error {
		for _, r := range ranges {
			bytesRead.Add(r.Len)
		}
		return inner(ranges, dsts)
	}
	r, err := OpenReader(src)
	if err != nil {
		t.Fatal(err)
	}

	tc := NewTrainingCacheDepth(r, 50, 250, -1)
	defer tc.Close()

	// The analysis touches only branches 1 and 4.
	for ev := uint64(0); ev < 1000; ev++ {
		for _, bi := range []int{1, 4} {
			got, err := tc.Branch(ev, bi)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, events[ev][bi]) {
				t.Fatalf("event %d branch %d mismatch", ev, bi)
			}
		}
	}
	if !tc.Trained() {
		t.Fatal("never finished training")
	}
	used := tc.UsedBranches()
	if len(used) != 2 || used[0] != 1 || used[1] != 4 {
		t.Fatalf("used = %v", used)
	}
	if tc.Retrains() != 0 {
		t.Fatalf("retrains = %d", tc.Retrains())
	}
	// Only ~2/6 of the file should have crossed the source (plus training
	// and index overhead).
	if got := bytesRead.Load(); got*2 > int64(len(img)) {
		t.Fatalf("trained scan read %d of %d bytes", got, len(img))
	}
}

func TestTrainingCacheLateBranchRetrains(t *testing.T) {
	events := randomEvents(21, 600, 4, 24)
	img := buildFile(t, []string{"a", "b", "c", "d"}, events, WriterOptions{EventsPerBasket: 64})
	r, _ := OpenReader(BytesSource(img))
	tc := NewTrainingCacheDepth(r, 20, 200, -1)
	defer tc.Close()

	for ev := uint64(0); ev < 600; ev++ {
		if _, err := tc.Branch(ev, 0); err != nil {
			t.Fatal(err)
		}
		// Branch 3 only appears after training ended.
		if ev == 400 {
			got, err := tc.Branch(ev, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, events[ev][3]) {
				t.Fatal("late branch content mismatch")
			}
		}
	}
	if tc.Retrains() != 1 {
		t.Fatalf("retrains = %d, want 1", tc.Retrains())
	}
	used := tc.UsedBranches()
	if len(used) != 2 || used[0] != 0 || used[1] != 3 {
		t.Fatalf("used = %v", used)
	}
}

func TestTrainingCacheMatchesNaive(t *testing.T) {
	events := randomEvents(22, 500, 3, 32)
	img := buildFile(t, []string{"a", "b", "c"}, events, WriterOptions{EventsPerBasket: 50})
	r1, _ := OpenReader(BytesSource(img))
	r2, _ := OpenReader(BytesSource(img))
	tc := NewTrainingCacheDepth(r2, 30, 100, -1)
	defer tc.Close()

	for ev := uint64(0); ev < 500; ev++ {
		for bi := 0; bi < 3; bi++ {
			naive, err := r1.ReadEvent(ev, []int{bi})
			if err != nil {
				t.Fatal(err)
			}
			got, err := tc.Branch(ev, bi)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, naive[0]) {
				t.Fatalf("event %d branch %d mismatch", ev, bi)
			}
		}
	}
}

func TestTrainingCacheBranchOutOfRange(t *testing.T) {
	img := buildFile(t, []string{"a"}, randomEvents(23, 10, 1, 8), WriterOptions{})
	r, _ := OpenReader(BytesSource(img))
	tc := NewTrainingCacheDepth(r, 5, 5, -1)
	defer tc.Close()
	if _, err := tc.Branch(0, 7); err == nil {
		t.Fatal("out-of-range branch accepted")
	}
}

// fetch is one vectored read a Source was asked for: its ranges, and
// whether it was a background (asynchronous) read.
type fetch struct {
	async  bool
	ranges []rangev.Range
}

// loggedSource appends every vectored read of src, synchronous or not, to
// log on the caller's goroutine.
func loggedSource(src Source, log *[]fetch) Source {
	read, readAsync := src.ReadVec, src.ReadVecAsyncCtx
	src.ReadVec = func(ranges []rangev.Range, dsts [][]byte) error {
		*log = append(*log, fetch{false, slices.Clone(ranges)})
		return read(ranges, dsts)
	}
	if readAsync != nil {
		src.ReadVecAsyncCtx = func(ctx context.Context, ranges []rangev.Range, dsts [][]byte) <-chan error {
			*log = append(*log, fetch{true, slices.Clone(ranges)})
			return readAsync(ctx, ranges, dsts)
		}
	}
	return src
}

// kinds spells log as one letter per read: A asynchronous, S synchronous.
func kinds(log []fetch) string {
	b := make([]byte, len(log))
	for i, f := range log {
		b[i] = "SA"[btoi(f.async)]
	}
	return string(b)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkFetchedOnce fails t if a basket of r travels whole in more than one
// read of log.
func checkFetchedOnce(t *testing.T, r *Reader, log []fetch) {
	t.Helper()
	for bi, br := range r.idx.Branches {
		for bk, b := range br.Baskets {
			n := 0
			for _, f := range log {
				for _, rg := range f.ranges {
					if rg.Off <= b.Offset && b.Offset+b.CompressedSize <= rg.End() {
						n++
					}
				}
			}
			if n > 1 {
				t.Fatalf("branch %d basket %d (events %d..) fetched %d times", bi, bk, b.FirstEvent, n)
			}
		}
	}
}

// lookaheadScan reads every event in order through a TrainingCache over a
// goSource of img: branch order[i] is first read at event touch[i]
// (nondecreasing, before the last training event), and each event reads
// the branches met so far, in that order. It checks every payload against
// ReadEvent, that a pipelined cache fetches no basket twice (a depth-0 fill
// fetches its whole window), that no speculative byte is wasted and that no
// retrain is forced. It returns the source's reads after the
// open, and how many of them went out before training ended.
func lookaheadScan(t *testing.T, img []byte, train, window uint64, depth int, order []int, touch []uint64) (log []fetch, inTraining int) {
	t.Helper()
	ref, err := OpenReader(BytesSource(img))
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(loggedSource(goSource(img), &log))
	if err != nil {
		t.Fatal(err)
	}
	log = nil
	tr := NewTrainingCacheDepth(r, train, window, depth)
	defer tr.Close()
	inTraining = -1
	for ev := uint64(0); ev < r.Events(); ev++ {
		for i, bi := range order {
			if touch[i] > ev {
				break
			}
			got, err := tr.Branch(ev, bi)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.ReadEvent(ev, []int{bi})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[0]) {
				t.Fatalf("event %d branch %d differs from ReadEvent", ev, bi)
			}
			if tr.Trained() && inTraining < 0 {
				inTraining = len(log)
			}
		}
	}
	if depth != 0 { // a synchronous fill fetches its whole window
		checkFetchedOnce(t, r, log)
	}
	if issued, wasted, cancelled := tr.PrefetchStats(); wasted != 0 || cancelled != 0 {
		t.Fatalf("sequential scan: issued %d B, wasted %d B, cancelled %d requests", issued, wasted, cancelled)
	}
	if n := tr.Retrains(); n != 0 {
		t.Fatalf("%d retrains", n)
	}
	return log, inTraining
}

// lookaheadRows are the boundary cases of the training lookahead: a basket
// straddling trainEvents (64-event baskets, 100 training events), training
// longer than a window, depths 0 to 3, windows that straddle baskets, and
// branches met at a later training event. fills is how many reads go out
// in the background before training ends: the first branch an event meets
// gets its own, the event's later ones share the next.
var lookaheadRows = []struct {
	name              string
	events, perBasket int
	train, window     uint64
	depth             int
	order             []int
	touch             []uint64
	fills             int
}{
	{"straddling basket/depth=3", 1024, 64, 100, 256, 3, []int{2, 0, 3, 1}, []uint64{0, 0, 0, 0}, 2},
	{"train>window/depth=2", 1024, 50, 300, 128, 2, []int{1, 3}, []uint64{0, 0}, 2},
	{"window=train/depth=1", 1024, 64, 100, 100, 1, []int{0, 1, 2, 3}, []uint64{0, 0, 0, 0}, 2},
	{"late branch/depth=2", 1024, 64, 100, 128, 2, []int{3, 0, 1}, []uint64{0, 0, 70}, 3},
	{"late branch at a basket boundary/depth=3", 1024, 64, 100, 100, 3, []int{0, 2}, []uint64{0, 64}, 2},
	{"depth=0", 1024, 64, 100, 256, 0, []int{0, 1}, []uint64{0, 0}, 0},
}

// TestLookaheadFetchesEachBasketOnce: across training's demand reads, the
// lookahead and the window pipeline, a sequential scan fetches no basket
// twice and wastes nothing, and the lookahead sends the scheduled number
// of background reads during training.
func TestLookaheadFetchesEachBasketOnce(t *testing.T) {
	for i, c := range lookaheadRows {
		t.Run(c.name, func(t *testing.T) {
			img := buildFile(t, []string{"a", "b", "c", "d"}, randomEvents(int64(50+i), c.events, 4, 24), WriterOptions{EventsPerBasket: c.perBasket})
			log, inTraining := lookaheadScan(t, img, c.train, c.window, c.depth, c.order, c.touch)
			if got := strings.Count(kinds(log[:inTraining]), "A"); got != c.fills {
				t.Fatalf("%d background reads before training ended (%s), want %d", got, kinds(log[:inTraining]), c.fills)
			}
		})
	}
}

// TestLookaheadRidesUnderTraining: the learned branches' lookahead fills go
// out while training's demand reads are still to come, and no demand read
// waits for one: the lookahead fetches stay held at the gate until training
// is over. Branch 0, met at event 0, gets its fill before its demand read;
// branch 2, met after it at event 0, gets its fill at event 1's first
// call; branch 3, met at event 30, at once. Event 64 starts the second
// basket of every branch: training's last demand read, one for all three.
func TestLookaheadRidesUnderTraining(t *testing.T) {
	events := randomEvents(42, 1024, 4, 32)
	img := buildFile(t, []string{"a", "b", "c", "d"}, events, WriterOptions{EventsPerBasket: 64})
	g := &gatedSource{
		gate:      make(chan struct{}),
		delivered: make(chan struct{}, 16),
		ungated:   func(call int) bool { return call > 3 },
	}
	var log []fetch
	r, err := OpenReader(loggedSource(g.source(img), &log))
	if err != nil {
		t.Fatal(err)
	}
	log = nil
	tr := NewTrainingCacheDepth(r, 100, 128, 3)
	defer tr.Close()
	scan := func(from, to uint64) {
		for ev := from; ev < to; ev++ {
			for _, bi := range []int{0, 2, 3} {
				if bi == 3 && ev < 30 {
					continue
				}
				p, err := tr.Branch(ev, bi)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(p, events[ev][bi]) {
					t.Fatalf("event %d branch %d mismatch", ev, bi)
				}
			}
		}
	}
	// Event 99 ends training, and its second call enters window 0, whose
	// lookahead is still held: the gate opens before it.
	scan(0, 99)
	if got, want := kinds(log), "ASSAASS"; got != want {
		t.Fatalf("reads during training %s, want %s (A: lookahead, S: demand)", got, want)
	}
	close(g.gate)
	scan(99, r.Events())
	checkFetchedOnce(t, r, log)
	if issued, wasted, _ := tr.PrefetchStats(); issued == 0 || wasted != 0 {
		t.Fatalf("issued %d B, wasted %d B; want some and none", issued, wasted)
	}
}

// TestPartlyCarriedWindowFetchesTheRest: when the pipeline enters a window
// the lookahead carries only part of, its demand fill takes the rest, so
// the next window's fill leaves that out instead of fetching it a second
// time. Training reads events 0–5 and ends with a jump to event 130; the
// scan goes back to event 105, in window 100 of 10 events, whose basket
// 64..127 neither training nor the lookahead (baskets from event 100 on)
// brought.
func TestPartlyCarriedWindowFetchesTheRest(t *testing.T) {
	events := randomEvents(45, 400, 1, 24)
	img := buildFile(t, []string{"a"}, events, WriterOptions{EventsPerBasket: 64})
	var log []fetch
	r, err := OpenReader(loggedSource(goSource(img), &log))
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrainingCacheDepth(r, 100, 10, 1)
	defer tr.Close()
	// The scan stays in window 100: entering window 110 sends window
	// 120's fill, which brings basket 128..191 again (training read it at
	// event 130, and window 100 evicted it).
	seq := []uint64{0, 1, 2, 3, 4, 5, 130}
	for ev := uint64(105); ev < 110; ev++ {
		seq = append(seq, ev)
	}
	for _, ev := range seq {
		p, err := tr.Branch(ev, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, events[ev][0]) {
			t.Fatalf("event %d mismatch", ev)
		}
	}
	checkFetchedOnce(t, r, log)
}

// TestCloseDuringTrainingCancelsLookahead: Close while training cancels the
// lookahead fetches, books every byte they carry as waste, and never
// publishes their baskets, whether they are still out or have landed.
func TestCloseDuringTrainingCancelsLookahead(t *testing.T) {
	events := randomEvents(43, 1024, 3, 64)
	img := buildFile(t, []string{"a", "b", "c"}, events, WriterOptions{EventsPerBasket: 64})
	for _, landed := range []bool{false, true} {
		t.Run(fmt.Sprintf("landed=%v", landed), func(t *testing.T) {
			base := runtime.NumGoroutine()
			g := &gatedSource{
				gate:      make(chan struct{}),
				delivered: make(chan struct{}, 16),
				ungated:   func(int) bool { return false },
			}
			r, err := OpenReader(g.source(img))
			if err != nil {
				t.Fatal(err)
			}
			tr := NewTrainingCacheDepth(r, 100, 128, 3)
			for ev := uint64(0); ev < 50; ev++ {
				for _, bi := range []int{0, 2} {
					if _, err := tr.Branch(ev, bi); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Branch 0's fill went out at event 0, branch 2's at event 1.
			var lookahead int64
			for _, pf := range tr.tc.pending {
				lookahead += pf.bytes
			}
			if len(g.ctxs) != 2 || lookahead == 0 {
				t.Fatalf("%d lookahead fetches of %d B in flight, want 2", len(g.ctxs), lookahead)
			}
			want := residentKeys(r)
			if landed {
				close(g.gate)
				<-g.delivered
				<-g.delivered
			}
			tr.Close()
			if issued, wasted, cancelled := tr.PrefetchStats(); issued != lookahead || wasted != lookahead || cancelled != 2 {
				t.Fatalf("issued %d B, wasted %d B, cancelled %d; want %d, %d and 2", issued, wasted, cancelled, lookahead, lookahead)
			}
			for i, ctx := range g.ctxs {
				if ctx.Err() == nil {
					t.Fatalf("lookahead fetch %d not cancelled", i+1)
				}
			}
			if got := residentKeys(r); !reflect.DeepEqual(got, want) {
				t.Fatalf("resident baskets %v after Close, want training's %v", got, want)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestTrainingDepthZeroIsLegacy: at depth 0 a TrainingCache sends no
// lookahead and puts the legacy request stream on the wire — one demand
// read per training call for the event's baskets of the branches learned
// so far, then the synchronous TreeCache's window fills over the learned
// set — even when the source offers asynchronous reads.
func TestTrainingDepthZeroIsLegacy(t *testing.T) {
	img := buildFile(t, []string{"a", "b", "c", "d"}, randomEvents(44, 1024, 4, 24), WriterOptions{EventsPerBasket: 64})
	order, touch := []int{3, 0, 1}, []uint64{0, 0, 70}
	got, _ := lookaheadScan(t, img, 100, 128, 0, order, touch)
	if strings.Contains(kinds(got), "A") {
		t.Fatalf("depth 0 read in the background: %s", kinds(got))
	}

	var want []fetch
	r, err := OpenReader(loggedSource(BytesSource(img), &want))
	if err != nil {
		t.Fatal(err)
	}
	want = nil
	var learned []int
	var tc *TreeCache
	for ev := uint64(0); ev < r.Events(); ev++ {
		for i, bi := range order {
			if touch[i] > ev {
				break
			}
			if tc != nil {
				if _, err := tc.Branch(ev, slices.Index(learned, bi)); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if !slices.Contains(learned, bi) {
				learned = append(learned, bi)
				slices.Sort(learned)
			}
			if _, err := r.ReadEvent(ev, learned); err != nil {
				t.Fatal(err)
			}
			if ev+1 >= 100 {
				tc = NewTreeCacheDepth(r, 128, slices.Clone(learned), 0)
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("depth 0 stream differs from legacy: %d reads, want %d", len(got), len(want))
	}
}
