package rootio

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"sync/atomic"
	"testing"
	"testing/quick"

	"godavix/internal/rangev"
)

// TestMain runs every test and fuzz target of the package with released
// basket buffers poisoned, so a payload read after its basket's eviction
// shows as 0xAA bytes instead of passing by luck.
func TestMain(m *testing.M) {
	poisonReleased = true
	os.Exit(m.Run())
}

// buildFile writes events through the Writer and returns the image plus
// the original payloads.
func buildFile(t *testing.T, branches []string, events [][][]byte, opts WriterOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, branches, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := w.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func randomEvents(seed int64, n, branches, mean int) [][][]byte {
	rng := rand.New(rand.NewSource(seed))
	events := make([][][]byte, n)
	for i := range events {
		ev := make([][]byte, branches)
		for b := range ev {
			p := make([]byte, rng.Intn(mean*2)+1)
			rng.Read(p)
			ev[b] = p
		}
		events[i] = ev
	}
	return events
}

func TestWriteReadRoundTrip(t *testing.T) {
	branches := []string{"a", "b", "c"}
	events := randomEvents(1, 1000, 3, 64)
	img := buildFile(t, branches, events, WriterOptions{EventsPerBasket: 100})

	r, err := OpenReader(BytesSource(img))
	if err != nil {
		t.Fatal(err)
	}
	if r.Events() != 1000 {
		t.Fatalf("events = %d", r.Events())
	}
	if got := r.Branches(); len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("branches = %v", got)
	}
	// Spot check events across baskets.
	for _, ev := range []uint64{0, 99, 100, 555, 999} {
		got, err := r.ReadEvent(ev, nil)
		if err != nil {
			t.Fatal(err)
		}
		for b := range branches {
			if !bytes.Equal(got[b], events[ev][b]) {
				t.Fatalf("event %d branch %d mismatch", ev, b)
			}
		}
	}
}

func TestPartialBasketFlushOnClose(t *testing.T) {
	branches := []string{"x"}
	events := randomEvents(2, 50, 1, 16) // < EventsPerBasket
	img := buildFile(t, branches, events, WriterOptions{EventsPerBasket: 256})
	r, err := OpenReader(BytesSource(img))
	if err != nil {
		t.Fatal(err)
	}
	if r.Events() != 50 {
		t.Fatalf("events = %d", r.Events())
	}
	got, err := r.ReadEvent(49, nil)
	if err != nil || !bytes.Equal(got[0], events[49][0]) {
		t.Fatalf("tail event mismatch: %v", err)
	}
}

func TestBranchSubsetRead(t *testing.T) {
	branches := []string{"a", "b", "c", "d"}
	events := randomEvents(3, 300, 4, 32)
	img := buildFile(t, branches, events, WriterOptions{EventsPerBasket: 64})
	r, _ := OpenReader(BytesSource(img))

	sel := []int{1, 3}
	got, err := r.ReadEvent(200, sel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], events[200][1]) || !bytes.Equal(got[1], events[200][3]) {
		t.Fatal("subset read mismatch")
	}
}

func TestBranchIndexOf(t *testing.T) {
	img := buildFile(t, []string{"px", "py"}, randomEvents(4, 10, 2, 8), WriterOptions{})
	r, _ := OpenReader(BytesSource(img))
	if r.BranchIndexOf("py") != 1 || r.BranchIndexOf("nope") != -1 {
		t.Fatal("BranchIndexOf wrong")
	}
}

func TestOpenReaderRejectsGarbage(t *testing.T) {
	if _, err := OpenReader(BytesSource([]byte("not an rnt file at all..."))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := OpenReader(BytesSource(nil)); err == nil {
		t.Fatal("empty accepted")
	}
	// Valid file with corrupted trailer magic.
	img := buildFile(t, []string{"a"}, randomEvents(5, 10, 1, 8), WriterOptions{})
	img[len(img)-1] ^= 0xff
	if _, err := OpenReader(BytesSource(img)); err == nil {
		t.Fatal("corrupt trailer accepted")
	}
}

func TestWriterErrors(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, nil, WriterOptions{}); err != ErrNoBranches {
		t.Fatalf("err = %v", err)
	}
	w, _ := NewWriter(&buf, []string{"a", "b"}, WriterOptions{})
	if err := w.WriteEvent([][]byte{{1}}); err == nil {
		t.Fatal("wrong arity accepted")
	}
	w.Close()
	if err := w.WriteEvent([][]byte{{1}, {2}}); err != ErrClosed {
		t.Fatalf("write after close err = %v", err)
	}
	if err := w.Close(); err != ErrClosed {
		t.Fatalf("double close err = %v", err)
	}
}

func TestReadEventOutOfRange(t *testing.T) {
	img := buildFile(t, []string{"a"}, randomEvents(6, 10, 1, 8), WriterOptions{})
	r, _ := OpenReader(BytesSource(img))
	if _, err := r.ReadEvent(10, nil); err == nil {
		t.Fatal("out-of-range event accepted")
	}
}

// TestFormatRoundTripProperty: arbitrary event payload sets survive
// write → read, across basket boundaries.
func TestFormatRoundTripProperty(t *testing.T) {
	prop := func(seed int64, nEv uint8, nBr uint8, basket uint8) bool {
		n := int(nEv%64) + 1
		br := int(nBr%4) + 1
		bk := int(basket%16) + 1
		events := randomEvents(seed, n, br, 32)
		branches := make([]string, br)
		for i := range branches {
			branches[i] = string(rune('a' + i))
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, branches, WriterOptions{EventsPerBasket: bk})
		if err != nil {
			return false
		}
		for _, ev := range events {
			if err := w.WriteEvent(ev); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		r, err := OpenReader(BytesSource(buf.Bytes()))
		if err != nil || r.Events() != uint64(n) {
			return false
		}
		for ev := 0; ev < n; ev++ {
			got, err := r.ReadEvent(uint64(ev), nil)
			if err != nil {
				return false
			}
			for b := 0; b < br; b++ {
				if !bytes.Equal(got[b], events[ev][b]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// countingSource wraps a Source counting vectored calls.
func countingSource(src Source, calls *atomic.Int64) Source {
	inner := src.ReadVec
	src.ReadVec = func(ranges []rangev.Range, dsts [][]byte) error {
		calls.Add(1)
		return inner(ranges, dsts)
	}
	return src
}

func TestTreeCacheMatchesNaiveRead(t *testing.T) {
	branches := []string{"a", "b", "c"}
	events := randomEvents(7, 2000, 3, 48)
	img := buildFile(t, branches, events, WriterOptions{EventsPerBasket: 128})

	r1, _ := OpenReader(BytesSource(img))
	r2, _ := OpenReader(BytesSource(img))
	tc := NewTreeCacheDepth(r2, 500, nil, -1)
	defer tc.Close()

	for ev := uint64(0); ev < 2000; ev++ {
		naive, err := r1.ReadEvent(ev, nil)
		if err != nil {
			t.Fatal(err)
		}
		cached, err := tc.Event(ev)
		if err != nil {
			t.Fatal(err)
		}
		for b := range naive {
			if !bytes.Equal(naive[b], cached[b]) {
				t.Fatalf("event %d branch %d: treecache != naive", ev, b)
			}
		}
	}
}

// TestTreeCacheReducesVectoredCalls: a scan of the first n events costs
// one vectored call per 1024-event window it enters, so reading a fraction
// of the file costs that fraction of the calls.
func TestTreeCacheReducesVectoredCalls(t *testing.T) {
	events := randomEvents(8, 4096, 2, 32)
	img := buildFile(t, []string{"a", "b"}, events, WriterOptions{EventsPerBasket: 128})

	for _, c := range []struct {
		events uint64
		fills  int64
	}{{4096, 4}, {2048, 2}, {1025, 2}, {1, 1}} {
		var calls atomic.Int64
		r, err := OpenReader(countingSource(BytesSource(img), &calls))
		if err != nil {
			t.Fatal(err)
		}
		calls.Store(0) // ignore open-time reads

		tc := NewTreeCacheDepth(r, 1024, nil, -1)
		for ev := uint64(0); ev < c.events; ev++ {
			if _, err := tc.Event(ev); err != nil {
				t.Fatal(err)
			}
		}
		tc.Close()
		if got := calls.Load(); got != c.fills || tc.Fills() != c.fills {
			t.Fatalf("%d events: %d vectored calls, %d fills; want %d", c.events, got, tc.Fills(), c.fills)
		}
	}
}

func TestTreeCachePrefetchOverlap(t *testing.T) {
	events := randomEvents(9, 1024, 2, 32)
	img := buildFile(t, []string{"a", "b"}, events, WriterOptions{EventsPerBasket: 64})

	var asyncCalls atomic.Int64
	src := BytesSource(img)
	sync := src.ReadVec
	src.ReadVecAsyncCtx = func(_ context.Context, ranges []rangev.Range, dsts [][]byte) <-chan error {
		asyncCalls.Add(1)
		ch := make(chan error, 1)
		go func() { ch <- sync(ranges, dsts) }()
		return ch
	}
	r, err := OpenReader(src)
	if err != nil {
		t.Fatal(err)
	}
	tc := NewTreeCacheDepth(r, 256, nil, -1)
	defer tc.Close()
	for ev := uint64(0); ev < 1024; ev++ {
		got, err := tc.Event(ev)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[0], events[ev][0]) {
			t.Fatalf("event %d mismatch under prefetch", ev)
		}
	}
	if asyncCalls.Load() == 0 {
		t.Fatal("async path never used")
	}
}

func TestTreeCacheRandomAccess(t *testing.T) {
	events := randomEvents(10, 1000, 2, 32)
	img := buildFile(t, []string{"a", "b"}, events, WriterOptions{EventsPerBasket: 50})
	r, _ := OpenReader(BytesSource(img))
	tc := NewTreeCacheDepth(r, 200, nil, -1)
	defer tc.Close()

	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		ev := uint64(rng.Intn(1000))
		got, err := tc.Event(ev)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[1], events[ev][1]) {
			t.Fatalf("random event %d mismatch", ev)
		}
	}
}

func TestTreeCacheBranchSubset(t *testing.T) {
	events := randomEvents(12, 500, 4, 32)
	img := buildFile(t, []string{"a", "b", "c", "d"}, events, WriterOptions{EventsPerBasket: 100})

	var calls atomic.Int64
	var bytesRead atomic.Int64
	src := BytesSource(img)
	inner := src.ReadVec
	src.ReadVec = func(ranges []rangev.Range, dsts [][]byte) error {
		calls.Add(1)
		for _, rg := range ranges {
			bytesRead.Add(rg.Len)
		}
		return inner(ranges, dsts)
	}
	r, _ := OpenReader(src)
	baseline := bytesRead.Load()

	tc := NewTreeCacheDepth(r, 500, []int{0}, -1) // single branch
	defer tc.Close()
	for ev := uint64(0); ev < 500; ev++ {
		got, err := tc.Event(ev)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || !bytes.Equal(got[0], events[ev][0]) {
			t.Fatalf("subset event %d wrong", ev)
		}
	}
	// Only ~1/4 of basket bytes should have crossed the source.
	used := bytesRead.Load() - baseline
	if used*3 > int64(len(img)) {
		t.Fatalf("single-branch scan read %d of %d bytes", used, len(img))
	}
}

func TestSynthesizeDeterministicAndReadable(t *testing.T) {
	spec := SynthSpec{Events: 500, Branches: 6, MeanPayload: 128, Seed: 42}
	img1, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	img2, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img1, img2) {
		t.Fatal("synthesis not deterministic")
	}
	r, err := OpenReader(BytesSource(img1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Events() != 500 || len(r.Branches()) != 6 {
		t.Fatalf("synth file: %d events %d branches", r.Events(), len(r.Branches()))
	}
	for _, ev := range []uint64{0, 250, 499} {
		got, err := r.ReadEvent(ev, nil)
		if err != nil {
			t.Fatal(err)
		}
		for b := range got {
			if !VerifyPayload(got[b], ev, b) {
				t.Fatalf("payload tag wrong at event %d branch %d", ev, b)
			}
		}
	}
}

func TestSynthCompresses(t *testing.T) {
	spec := SynthSpec{Events: 1000, Branches: 4, MeanPayload: 256, Seed: 1}
	img, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := OpenReader(BytesSource(img))
	var csum, usum int64
	for _, br := range r.Index().Branches {
		for _, b := range br.Baskets {
			csum += b.CompressedSize
			usum += b.UncompressedSize
		}
	}
	if csum >= usum {
		t.Fatalf("no compression: %d >= %d", csum, usum)
	}
	// But not fully compressible either (half random).
	if csum*3 < usum {
		t.Fatalf("suspiciously compressible: %d vs %d", csum, usum)
	}
}

func TestTreeCacheEvictsToWindow(t *testing.T) {
	events := randomEvents(13, 600, 2, 32)
	img := buildFile(t, []string{"a", "b"}, events, WriterOptions{EventsPerBasket: 100})
	r, _ := OpenReader(BytesSource(img))
	tc := NewTreeCacheDepth(r, 200, nil, -1) // depth 0: BytesSource has no async read
	defer tc.Close()

	for ev := uint64(0); ev < 600; ev += 10 {
		if _, err := tc.Event(ev); err != nil {
			t.Fatal(err)
		}
	}
	// Entering a window evicts every basket it does not need, so exactly
	// the last window's baskets stay resident: 2 branches × 2 baskets per
	// 200-event window.
	if got := r.cachedBaskets(); got != 4 {
		t.Fatalf("resident baskets = %d, want 4", got)
	}
}

// TestEvictedPayloadIsPoisoned: a payload held past the window entry that
// evicts its basket reads as 0xAA, which proves the poison TestMain turns
// on is wired to eviction. Basket 0 inflates into a 1 MiB-class buffer,
// a class nothing else the test decodes takes from the pool.
func TestEvictedPayloadIsPoisoned(t *testing.T) {
	big := bytes.Repeat([]byte("event zero "), 60000)
	img := buildFile(t, []string{"a"}, [][][]byte{{big}, {[]byte("tiny")}}, WriterOptions{EventsPerBasket: 1})
	r, err := OpenReader(BytesSource(img))
	if err != nil {
		t.Fatal(err)
	}
	tc := NewTreeCacheDepth(r, 1, nil, 0)
	defer tc.Close()
	p, err := tc.Branch(0, 0)
	if err != nil || !bytes.Equal(p, big) {
		t.Fatalf("event 0 before eviction: err %v, payload intact %v", err, bytes.Equal(p, big))
	}
	if _, err := tc.Branch(1, 0); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(p, []byte{0xAA}); n != len(p) {
		t.Fatalf("payload held past its basket's eviction: %d of %d bytes poisoned", n, len(p))
	}
}
