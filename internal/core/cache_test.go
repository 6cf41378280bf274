package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"godavix/internal/blockcache"
	"godavix/internal/httpserv"
	"godavix/internal/rangev"
)

// cachedOptions enables the full caching stack on an otherwise-default
// client. Metalink is off so request counts are exact.
func cachedOptions() Options {
	return Options{
		Strategy:  StrategyNone,
		CacheSize: 1 << 20,
		BlockSize: 1 << 10,
		StatTTL:   time.Minute,
	}
}

func TestCachedReadAtServesRepeatsFromMemory(t *testing.T) {
	e := newEnv(t, cachedOptions())
	e.startServer(t, dpm1, httpserv.Options{})
	ctx := context.Background()

	// Larger than the ends Open keeps, and read between them.
	blob := make([]byte, 96<<10)
	rand.New(rand.NewSource(11)).Read(blob)
	e.stores[dpm1].Put("/f", blob)

	f, err := e.client.Open(ctx, dpm1, "/f")
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 2048)
	for i := 0; i < 5; i++ {
		n, err := f.ReadAt(p, 5120)
		if err != nil || n != len(p) || !bytes.Equal(p, blob[5120:7168]) {
			t.Fatalf("read %d: n=%d err=%v", i, n, err)
		}
	}
	if gets := e.srvs[dpm1].RequestsByMethod("GET"); gets != 1+2 {
		t.Fatalf("server GETs = %d, want 1 open + 2 (blocks fetched once)", gets)
	}
	st := e.client.CacheStats()
	if st.Misses != 2 || st.Hits != 8 {
		t.Fatalf("stats = %+v, want 2 misses / 8 hits", st)
	}
}

func TestCachedGetRangeAndGetPopulate(t *testing.T) {
	e := newEnv(t, cachedOptions())
	e.startServer(t, dpm1, httpserv.Options{})
	ctx := context.Background()

	blob := make([]byte, 3000) // ends mid-block
	rand.New(rand.NewSource(12)).Read(blob)
	e.stores[dpm1].Put("/f", blob)

	got, err := e.client.GetRange(ctx, dpm1, "/f", 100, 500)
	if err != nil || !bytes.Equal(got, blob[100:600]) {
		t.Fatalf("range = %d bytes, err=%v", len(got), err)
	}
	// Same range again: served from the cached block.
	gets := e.srvs[dpm1].RequestsByMethod("GET")
	if _, err := e.client.GetRange(ctx, dpm1, "/f", 100, 500); err != nil {
		t.Fatal(err)
	}
	if now := e.srvs[dpm1].RequestsByMethod("GET"); now != gets {
		t.Fatalf("GETs grew %d -> %d on cached range", gets, now)
	}

	// A range crossing EOF comes back short, like a range-clamping server.
	got, err = e.client.GetRange(ctx, dpm1, "/f", 2500, 5000)
	if err != nil || !bytes.Equal(got, blob[2500:]) {
		t.Fatalf("eof range = %d bytes, err=%v", len(got), err)
	}

	// Same when the object size is an exact block multiple: the walk into
	// the nonexistent next block must not turn the short read into a 416.
	aligned := make([]byte, 4096) // 4 blocks of 1 KiB exactly
	rand.New(rand.NewSource(15)).Read(aligned)
	e.stores[dpm1].Put("/aligned", aligned)
	got, err = e.client.GetRange(ctx, dpm1, "/aligned", 4000, 500)
	if err != nil || !bytes.Equal(got, aligned[4000:]) {
		t.Fatalf("aligned eof range = %d bytes, err=%v", len(got), err)
	}
	// Entirely past EOF still errors like the uncached path.
	if _, err := e.client.GetRange(ctx, dpm1, "/aligned", 8192, 100); err == nil {
		t.Fatal("range fully past EOF succeeded")
	}

	// A full-object Get populates every block: the follow-up range read is
	// free.
	e.stores[dpm1].Put("/g", blob)
	if _, err := e.client.Get(ctx, dpm1, "/g"); err != nil {
		t.Fatal(err)
	}
	gets = e.srvs[dpm1].RequestsByMethod("GET")
	got, err = e.client.GetRange(ctx, dpm1, "/g", 2048, 952)
	if err != nil || !bytes.Equal(got, blob[2048:]) {
		t.Fatalf("range after Get: %d bytes, err=%v", len(got), err)
	}
	if now := e.srvs[dpm1].RequestsByMethod("GET"); now != gets {
		t.Fatalf("GETs grew %d -> %d after populating Get", gets, now)
	}
}

func TestCacheInvalidationOnPutAndDelete(t *testing.T) {
	e := newEnv(t, cachedOptions())
	e.startServer(t, dpm1, httpserv.Options{})
	ctx := context.Background()

	v1 := bytes.Repeat([]byte{'1'}, 2048)
	v2 := bytes.Repeat([]byte{'2'}, 2048)
	if err := e.client.Put(ctx, dpm1, "/f", v1); err != nil {
		t.Fatal(err)
	}
	got, err := e.client.GetRange(ctx, dpm1, "/f", 0, 2048)
	if err != nil || !bytes.Equal(got, v1) {
		t.Fatal("warm-up read failed")
	}

	// Put must drop the stale blocks and stat entry.
	if err := e.client.Put(ctx, dpm1, "/f", v2); err != nil {
		t.Fatal(err)
	}
	got, err = e.client.GetRange(ctx, dpm1, "/f", 0, 2048)
	if err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("read after Put returned stale data")
	}
	inf, err := e.client.Stat(ctx, dpm1, "/f")
	if err != nil || inf.Size != 2048 {
		t.Fatalf("stat after Put = %+v err=%v", inf, err)
	}

	// Delete must drop blocks and the positive stat entry.
	if err := e.client.Delete(ctx, dpm1, "/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.client.Stat(ctx, dpm1, "/f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stat after Delete = %v, want ErrNotFound", err)
	}
}

func TestStatCacheTTLAndNegativeEntries(t *testing.T) {
	e := newEnv(t, cachedOptions())
	e.startServer(t, dpm1, httpserv.Options{})
	ctx := context.Background()

	e.stores[dpm1].Put("/f", []byte("abc"))

	for i := 0; i < 4; i++ {
		inf, err := e.client.Stat(ctx, dpm1, "/f")
		if err != nil || inf.Size != 3 {
			t.Fatalf("stat %d = %+v err=%v", i, inf, err)
		}
	}
	if heads := e.srvs[dpm1].RequestsByMethod("HEAD"); heads != 1 {
		t.Fatalf("server HEADs = %d, want 1 (stat TTL)", heads)
	}

	// A missing path is cached negatively: repeated stats cost one HEAD.
	for i := 0; i < 4; i++ {
		if _, err := e.client.Stat(ctx, dpm1, "/nope"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("stat missing %d = %v", i, err)
		}
	}
	if heads := e.srvs[dpm1].RequestsByMethod("HEAD"); heads != 2 {
		t.Fatalf("server HEADs = %d, want 2 (negative cache)", heads)
	}
	st := e.client.CacheStats()
	if st.StatHits != 6 || st.StatMisses != 2 {
		t.Fatalf("stat counters = %d/%d, want 6/2", st.StatHits, st.StatMisses)
	}

	// Creating the object invalidates the negative entry immediately.
	if err := e.client.Put(ctx, dpm1, "/nope", []byte("now exists")); err != nil {
		t.Fatal(err)
	}
	inf, err := e.client.Stat(ctx, dpm1, "/nope")
	if err != nil || inf.Size != 10 {
		t.Fatalf("stat after create = %+v err=%v (negative entry stuck)", inf, err)
	}
}

func TestCachedReadVecServesResidentFragments(t *testing.T) {
	e := newEnv(t, cachedOptions())
	e.startServer(t, dpm1, httpserv.Options{})
	ctx := context.Background()

	blob := make([]byte, 16<<10)
	rand.New(rand.NewSource(13)).Read(blob)
	e.stores[dpm1].Put("/f", blob)

	ranges := []rangev.Range{{Off: 0, Len: 2048}, {Off: 4096, Len: 1024}, {Off: 8192, Len: 3072}}
	dsts := [][]byte{make([]byte, 2048), make([]byte, 1024), make([]byte, 3072)}
	if err := e.client.ReadVec(ctx, dpm1, "/f", ranges, dsts); err != nil {
		t.Fatal(err)
	}
	for i, r := range ranges {
		if !bytes.Equal(dsts[i], blob[r.Off:r.Off+r.Len]) {
			t.Fatalf("fragment %d corrupt", i)
		}
	}

	// The fragments were block-aligned, so a repeat is fully resident.
	gets := e.srvs[dpm1].RequestsByMethod("GET")
	for i := range dsts {
		dsts[i] = make([]byte, ranges[i].Len)
	}
	if err := e.client.ReadVec(ctx, dpm1, "/f", ranges, dsts); err != nil {
		t.Fatal(err)
	}
	if now := e.srvs[dpm1].RequestsByMethod("GET"); now != gets {
		t.Fatalf("GETs grew %d -> %d on fully cached ReadVec", gets, now)
	}
	for i, r := range ranges {
		if !bytes.Equal(dsts[i], blob[r.Off:r.Off+r.Len]) {
			t.Fatalf("cached fragment %d corrupt", i)
		}
	}
}

func TestCachedConcurrentReadAt(t *testing.T) {
	e := newEnv(t, cachedOptions())
	e.startServer(t, dpm1, httpserv.Options{})
	ctx := context.Background()

	// The reads fall in a 64-block stretch between the ends Open keeps.
	const lo, span = 64 << 10, 64 << 10
	blob := make([]byte, 256<<10)
	rand.New(rand.NewSource(14)).Read(blob)
	e.stores[dpm1].Put("/f", blob)

	f, err := e.client.Open(ctx, dpm1, "/f")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			p := make([]byte, 1500)
			for i := 0; i < 50; i++ {
				off := lo + rng.Int63n(span-int64(len(p)))
				n, err := f.ReadAt(p, off)
				if err != nil || n != len(p) {
					t.Errorf("read at %d: n=%d err=%v", off, n, err)
					return
				}
				if !bytes.Equal(p, blob[off:off+int64(len(p))]) {
					t.Errorf("corrupt read at %d", off)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	st := e.client.CacheStats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("stats = %+v, want both hits and misses", st)
	}
	if st.Misses > 64 {
		t.Fatalf("misses = %d for a 64-block file (single-flight broken?)", st.Misses)
	}
}

func TestFileCloseSemantics(t *testing.T) {
	e := newEnv(t, cachedOptions())
	e.startServer(t, dpm1, httpserv.Options{})
	ctx := context.Background()

	// Read between the ends Open keeps, so the block goes through the
	// cache.
	const at = 8 << 10
	e.stores[dpm1].Put("/f", bytes.Repeat([]byte("to be closed"), 10<<10))
	f, err := e.client.Open(ctx, dpm1, "/f")
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 4)
	if _, err := f.ReadAt(p, at); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("first Close = %v", err)
	}

	if _, err := f.ReadAt(p, 0); !errors.Is(err, ErrFileClosed) {
		t.Fatalf("ReadAt after Close = %v", err)
	}
	if _, err := f.Read(p); !errors.Is(err, ErrFileClosed) {
		t.Fatalf("Read after Close = %v", err)
	}
	if _, err := f.Seek(0, io.SeekStart); !errors.Is(err, ErrFileClosed) {
		t.Fatalf("Seek after Close = %v", err)
	}
	if err := f.ReadVec([]rangev.Range{{Off: 0, Len: 4}}, [][]byte{p}); !errors.Is(err, ErrFileClosed) {
		t.Fatalf("ReadVec after Close = %v", err)
	}
	if err := f.Close(); !errors.Is(err, ErrFileClosed) {
		t.Fatalf("second Close = %v", err)
	}

	// Close released the file's cached blocks: a fresh handle refetches.
	gets := e.srvs[dpm1].RequestsByMethod("GET")
	f2, err := e.client.Open(ctx, dpm1, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.ReadAt(p, at); err != nil {
		t.Fatal(err)
	}
	if now := e.srvs[dpm1].RequestsByMethod("GET"); now != gets+1+1 {
		t.Fatalf("GETs %d -> %d, want one open and one refetch after Close released blocks", gets, now)
	}
}

func TestZeroCacheOptionsKeepUncachedBehaviour(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone})
	e.startServer(t, dpm1, httpserv.Options{})
	ctx := context.Background()

	e.stores[dpm1].Put("/f", bytes.Repeat([]byte{'x'}, 4096))
	for i := 0; i < 3; i++ {
		if _, err := e.client.GetRange(ctx, dpm1, "/f", 0, 1024); err != nil {
			t.Fatal(err)
		}
	}
	if gets := e.srvs[dpm1].RequestsByMethod("GET"); gets != 3 {
		t.Fatalf("GETs = %d, want 3 (no cache)", gets)
	}
	if st := e.client.CacheStats(); st != (blockcache.Stats{}) {
		t.Fatalf("stats on uncached client = %+v, want zeros", st)
	}
}

// TestCachedGetRangeScanWithPrefetch scans an object of a size the cache
// does not know (GetRange passes -1) block by block with read-ahead on.
// The read-ahead asks past the end of the object; that must teach the
// cache where the object ends, never fail the demand read of the last,
// short block.
func TestCachedGetRangeScanWithPrefetch(t *testing.T) {
	opts := cachedOptions()
	opts.PrefetchDepth = 2
	e := newEnv(t, opts)
	e.startServer(t, dpm1, httpserv.Options{})
	ctx := context.Background()

	blob := make([]byte, 3*1024+512) // blocks 0..3, block 3 short
	rand.New(rand.NewSource(16)).Read(blob)
	for run := 0; run < 50; run++ {
		path := fmt.Sprintf("/scan%d", run)
		e.stores[dpm1].Put(path, blob)
		for off := int64(0); off < int64(len(blob)); off += 1024 {
			got, err := e.client.GetRange(ctx, dpm1, path, off, 1024)
			if want := blob[off:min(off+1024, int64(len(blob)))]; err != nil || !bytes.Equal(got, want) {
				t.Fatalf("run %d: range at %d = %d bytes, err=%v", run, off, len(got), err)
			}
		}
	}
}

// TestCachedReadAtPrefetchPatterns drives File.ReadAt through the cache's
// read-ahead on the two patterns it detects: a contiguous scan (armed at
// once) and a sparse every-third-block scan (armed after two equal
// strides). Both must return exact bytes, be served in part by
// speculation ("read-ahead-engages"), and cost the wire no GET beyond the
// cache's own count ("wire-bound").
func TestCachedReadAtPrefetchPatterns(t *testing.T) {
	// The scan runs over 90 blocks between the ends Open keeps.
	blob := make([]byte, 94*1024+300)
	rand.New(rand.NewSource(17)).Read(blob)
	for _, tc := range []struct {
		name   string
		stride int64 // in 1 KiB blocks
	}{
		{"sequential", 1},
		{"every-third-block", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := cachedOptions()
			opts.PrefetchDepth = 2
			e := newEnv(t, opts)
			e.startServer(t, dpm1, httpserv.Options{})
			e.stores[dpm1].Put("/f", blob)
			f, err := e.client.Open(context.Background(), dpm1, "/f")
			if err != nil {
				t.Fatal(err)
			}
			opened := e.srvs[dpm1].RequestsByMethod("GET")
			p := make([]byte, 1024)
			for off := int64(0); off < int64(len(blob)); off += tc.stride * 1024 {
				n, err := f.ReadAt(p, off)
				if err != nil && err != io.EOF {
					t.Fatalf("read at %d: %v", off, err)
				}
				if want := blob[off:min(off+1024, int64(len(blob)))]; !bytes.Equal(p[:n], want) {
					t.Fatalf("read at %d: %d bytes, want %d exact", off, n, len(want))
				}
			}
			// Every GET after Open is a demand miss or a speculative span.
			// Both counters are bumped before their request is issued, so
			// with the GETs counted first the bound holds at any instant,
			// speculation still in flight or not; hits and joins cost the
			// wire nothing.
			gets := e.srvs[dpm1].RequestsByMethod("GET") - opened
			st := e.client.CacheStats()
			t.Run("read-ahead-engages", func(t *testing.T) {
				if st.Prefetched == 0 || st.PrefetchUsefulBytes == 0 {
					t.Fatalf("read-ahead never served the scan: %+v", st)
				}
			})
			t.Run("wire-bound", func(t *testing.T) {
				if gets > st.Misses+st.PrefetchIssuedSpans {
					t.Fatalf("server GETs after Open = %d > misses %d + prefetch spans %d",
						gets, st.Misses, st.PrefetchIssuedSpans)
				}
			})
		})
	}
}
