package rootio

import (
	"context"
	"runtime"
	"testing"

	"godavix/internal/rangev"
)

// scanBranches is the sparse selection of the analysis benchmark: every
// third column of the 12.
var scanBranches = []int{0, 3, 6, 9}

// goSource is a BytesSource with a goroutine-backed asynchronous read, so
// the window pipeline — fill goroutines, pooled run buffers — is what runs.
func goSource(img []byte) Source {
	src := BytesSource(img)
	read := src.ReadVec
	src.ReadVecAsyncCtx = func(_ context.Context, ranges []rangev.Range, dsts [][]byte) <-chan error {
		ch := make(chan error, 1)
		go func() { ch <- read(ranges, dsts) }()
		return ch
	}
	return src
}

// trainedScan is one analysis job's I/O: open, train on the first 100
// events, then read scanBranches of every event through 256-event windows
// kept depth deep. It returns the payload bytes seen.
func trainedScan(tb testing.TB, img []byte, depth int) (events uint64, total int) {
	r, err := OpenReader(goSource(img))
	if err != nil {
		tb.Fatal(err)
	}
	tc := NewTrainingCacheDepth(r, 100, 256, depth)
	defer tc.Close()
	for ev := uint64(0); ev < r.Events(); ev++ {
		for _, bi := range scanBranches {
			p, err := tc.Branch(ev, bi)
			if err != nil {
				tb.Fatal(err)
			}
			total += len(p)
		}
	}
	return r.Events(), total
}

func scanImage(tb testing.TB, events int) []byte {
	img, err := Synthesize(SynthSpec{Events: events, Branches: 12, MeanPayload: 64, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

// BenchmarkSynthesize builds the analysis benchmark's dataset: 12 000
// events of 12 branches, 564 baskets compressed through the Writer.
func BenchmarkSynthesize(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Synthesize(SynthSpec{Events: 12000, Branches: 12, MeanPayload: 64, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

var scanSink int

func BenchmarkTrainedScan(b *testing.B) {
	img := scanImage(b, 12000)
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		n, total := trainedScan(b, img, 3)
		events += n
		scanSink = total
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// analysisBaskets are the compressed scanBranches baskets of an analysis
// image of the given number of events, and their inflated sizes.
func analysisBaskets(tb testing.TB, events int) (blobs [][]byte, sizes []int64, total int64) {
	img := scanImage(tb, events)
	r, err := OpenReader(BytesSource(img))
	if err != nil {
		tb.Fatal(err)
	}
	for _, bi := range scanBranches {
		for _, b := range r.Index().Branches[bi].Baskets {
			blobs = append(blobs, img[b.Offset:b.Offset+b.CompressedSize])
			sizes = append(sizes, b.UncompressedSize)
			total += b.UncompressedSize
		}
	}
	return blobs, sizes, total
}

// BenchmarkInflateBasket inflates and splits every basket the analysis job
// reads (the 12 000-event image), reporting inflated MB/s; zlib is the
// compress/zlib oracle doing the same work.
func BenchmarkInflateBasket(b *testing.B) {
	blobs, sizes, total := analysisBaskets(b, 12000)
	b.Run("onepass", func(b *testing.B) {
		b.SetBytes(total)
		b.ReportAllocs()
		for b.Loop() {
			for i, blob := range blobs {
				bk, err := inflateBasket(blob, sizes[i])
				if err != nil {
					b.Fatal(err)
				}
				bk.release()
			}
		}
	})
	b.Run("zlib", func(b *testing.B) {
		b.SetBytes(total)
		b.ReportAllocs()
		var inf zlibInflater
		for b.Loop() {
			for i, blob := range blobs {
				raw, _, err := inf.inflate(blob, sizes[i])
				if err == nil {
					_, err = decodeBasket(nil, raw)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// TestInflateBasketAllocs: the inflated buffer, the basket record with its
// event table and the decoder tables are all pooled, so a basket inflated
// and released costs nothing once the pools are warm. Under the race
// detector sync.Pool drops a quarter of the items it is given, so there a
// record, a table or a decoder is sometimes made afresh.
func TestInflateBasketAllocs(t *testing.T) {
	blobs, sizes, _ := analysisBaskets(t, 256)
	allocs := testing.AllocsPerRun(100, func() {
		bk, err := inflateBasket(blobs[0], sizes[0])
		if err != nil {
			t.Fatal(err)
		}
		bk.release()
	})
	if budget := raceBudget(0, 3); allocs > budget {
		t.Fatalf("inflateBasket + release: %v allocs per basket, want <= %v", allocs, budget)
	}
}

// scanAllocs is what a warm trained scan of the 4096-event image at the
// given depth allocates per event.
func scanAllocs(t *testing.T, depth int) float64 {
	img := scanImage(t, 4096)
	trainedScan(t, img, depth) // warm the inflater, basket and buffer pools
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	events, _ := trainedScan(t, img, depth)
	runtime.ReadMemStats(&m1)
	perEvent := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(events)
	t.Logf("depth %d: %.0f B/event", depth, perEvent)
	return perEvent
}

// TestTrainedScanAllocBudget pins what a pipelined trained scan allocates
// per event. Inflated baskets, their event tables, the compressed bytes and
// the decoder tables all come from pools, and an evicted basket gives its
// buffers back; what is left is the per-window bookkeeping. Measured: 77
// B/event; 640 when every basket was a fresh buffer and table, 2273 with a
// decompressor per basket, unpooled run buffers and an Event per Branch.
// Under the race detector, whose sync.Pool drops a quarter of the records
// and tables it is given, 163, hence a bound of its own.
func TestTrainedScanAllocBudget(t *testing.T) {
	if perEvent, budget := scanAllocs(t, 3), raceBudget(130, 400); perEvent > budget {
		t.Fatalf("trained scan allocates %.0f B/event, budget %.0f", perEvent, budget)
	}
}

// TestTrainedScanDepthZeroAllocBudget is the same budget for synchronous
// fills, whose blobs are fetched into bufpool buffers and decoded on the
// caller's goroutine. Measured: 25 B/event, 157 under the race detector,
// whose bound is its own as above.
func TestTrainedScanDepthZeroAllocBudget(t *testing.T) {
	if perEvent, budget := scanAllocs(t, 0), raceBudget(120, 400); perEvent > budget {
		t.Fatalf("depth-0 trained scan allocates %.0f B/event, budget %.0f", perEvent, budget)
	}
}

// TestTreeCacheBranchNoAllocs: inside a resident window a Branch call is a
// lookup — no key slice, no result slice.
func TestTreeCacheBranchNoAllocs(t *testing.T) {
	events := randomEvents(38, 512, 3, 32)
	img := buildFile(t, []string{"a", "b", "c"}, events, WriterOptions{EventsPerBasket: 64})
	r, err := OpenReader(goSource(img))
	if err != nil {
		t.Fatal(err)
	}
	tc := NewTreeCacheDepth(r, 100, nil, 2)
	defer tc.Close()
	if _, err := tc.Branch(100, 0); err != nil {
		t.Fatal(err)
	}
	ev := uint64(100)
	allocs := testing.AllocsPerRun(500, func() {
		for pos := 0; pos < 3; pos++ {
			if _, err := tc.Branch(ev, pos); err != nil {
				t.Fatal(err)
			}
		}
		if ev++; ev == 200 {
			ev = 100
		}
	})
	if allocs != 0 {
		t.Fatalf("Branch inside a resident window: %v allocs per event, want 0", allocs)
	}
}
