package blockcache

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sourceFetch serves fetches out of src, counting calls and recording the
// requested spans, optionally blocking on gate to let tests hold a fetch
// in flight.
type sourceFetch struct {
	src   []byte
	calls atomic.Int64
	gate  chan struct{} // nil = never block
	spans struct {
		sync.Mutex
		seen []Span
	}
}

func (s *sourceFetch) fetch(ctx context.Context, off, length int64) ([]byte, error) {
	s.calls.Add(1)
	s.spans.Lock()
	s.spans.seen = append(s.spans.seen, Span{Off: off, Len: length})
	s.spans.Unlock()
	if s.gate != nil {
		select {
		case <-s.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if off >= int64(len(s.src)) {
		return nil, errors.New("fetch past end")
	}
	end := off + length
	if end > int64(len(s.src)) {
		end = int64(len(s.src))
	}
	return append([]byte(nil), s.src[off:end]...), nil
}

func randBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestReadThroughHitMiss(t *testing.T) {
	sf := &sourceFetch{src: randBytes(8192, 1)}
	c := New(Config{Capacity: 1 << 20, BlockSize: 1024})
	ctx := context.Background()

	p := make([]byte, 1536)
	n, err := c.ReadThrough(ctx, "k", int64(len(sf.src)), p, 512, sf.fetch)
	if err != nil || n != 1536 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if !bytes.Equal(p, sf.src[512:2048]) {
		t.Fatal("wrong bytes")
	}
	if got := sf.calls.Load(); got != 2 {
		t.Fatalf("fetch calls = %d, want 2 (blocks 0 and 1)", got)
	}

	// Same span again: both blocks resident, no network.
	n, err = c.ReadThrough(ctx, "k", int64(len(sf.src)), p, 512, sf.fetch)
	if err != nil || n != 1536 || sf.calls.Load() != 2 {
		t.Fatalf("n=%d err=%v calls=%d", n, err, sf.calls.Load())
	}
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 2 || st.BytesCached != 2048 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReadThroughShortBlockUnknownSize(t *testing.T) {
	sf := &sourceFetch{src: randBytes(1500, 2)} // EOF inside block 1
	c := New(Config{Capacity: 1 << 20, BlockSize: 1024})
	p := make([]byte, 4096)
	n, err := c.ReadThrough(context.Background(), "k", -1, p, 0, sf.fetch)
	if err != nil || n != 1500 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if !bytes.Equal(p[:n], sf.src) {
		t.Fatal("wrong bytes")
	}
	if sf.calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2 (short block 1 stops the walk)", sf.calls.Load())
	}
}

func TestLRUEvictionAtCapacity(t *testing.T) {
	sf := &sourceFetch{src: randBytes(8192, 3)}
	c := New(Config{Capacity: 4096, BlockSize: 1024}) // room for 4 blocks
	ctx := context.Background()
	p := make([]byte, 1024)
	for i := 0; i < 8; i++ {
		if _, err := c.ReadThrough(ctx, "k", 8192, p, int64(i)*1024, sf.fetch); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 4 {
		t.Fatalf("resident blocks = %d, want 4", c.Len())
	}
	st := c.Stats()
	if st.Evictions != 4 || st.BytesCached != 4096 {
		t.Fatalf("stats = %+v", st)
	}
	// Oldest blocks are gone, newest present.
	if c.Contains("k", 0) || !c.Contains("k", 7*1024) {
		t.Fatal("LRU order violated")
	}
	// Re-reading an evicted block is a miss again.
	before := sf.calls.Load()
	if _, err := c.ReadThrough(ctx, "k", 8192, p, 0, sf.fetch); err != nil {
		t.Fatal(err)
	}
	if sf.calls.Load() != before+1 {
		t.Fatal("evicted block not refetched")
	}
}

func TestSingleFlightCoalescesConcurrentMisses(t *testing.T) {
	sf := &sourceFetch{src: randBytes(4096, 4), gate: make(chan struct{})}
	c := New(Config{Capacity: 1 << 20, BlockSize: 1024})
	ctx := context.Background()

	const readers = 10
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := make([]byte, 1024)
			_, errs[i] = c.ReadThrough(ctx, "k", 4096, p, 0, sf.fetch)
			if errs[i] == nil && !bytes.Equal(p, sf.src[:1024]) {
				errs[i] = errors.New("wrong bytes")
			}
		}(i)
	}
	// Wait until every reader has either started the fetch or parked on it,
	// then release the one in-flight fetch.
	deadline := time.After(5 * time.Second)
	for {
		c.mu.Lock()
		parked := len(c.inflight) == 1
		c.mu.Unlock()
		if parked && c.joins.Load() == readers-1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("readers never coalesced: joins=%d", c.joins.Load())
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(sf.gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}
	if got := sf.calls.Load(); got != 1 {
		t.Fatalf("fetch calls = %d, want 1 (single-flight)", got)
	}
	st := c.Stats()
	if st.Misses != 1 || st.SingleFlightJoins != readers-1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConcurrentRandomReads(t *testing.T) {
	src := randBytes(256<<10, 5)
	sf := &sourceFetch{src: src}
	c := New(Config{Capacity: 64 << 10, BlockSize: 4096}) // forces eviction churn
	ctx := context.Background()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			p := make([]byte, 3*4096)
			for i := 0; i < 100; i++ {
				off := rng.Int63n(int64(len(src)) - int64(len(p)))
				n, err := c.ReadThrough(ctx, "k", int64(len(src)), p, off, sf.fetch)
				if err != nil {
					t.Errorf("read at %d: %v", off, err)
					return
				}
				if n != len(p) || !bytes.Equal(p, src[off:off+int64(len(p))]) {
					t.Errorf("corrupt read at %d", off)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestReadAheadPrefetchesSequentialScan(t *testing.T) {
	src := randBytes(16<<10, 6)
	sf := &sourceFetch{src: src}
	c := New(Config{Capacity: 1 << 20, BlockSize: 1024, ReadAhead: 4})
	ctx := context.Background()
	p := make([]byte, 1024)

	// A scan starting at block 0 arms read-ahead immediately: blocks 1..4
	// should land without demand fetches.
	if _, err := c.ReadThrough(ctx, "k", int64(len(src)), p, 0, sf.fetch); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.Len() >= 5 })
	if st := c.Stats(); st.Prefetched != 4 {
		t.Fatalf("prefetched = %d, want 4", st.Prefetched)
	}
	for i := 1; i <= 4; i++ {
		n, err := c.ReadThrough(ctx, "k", int64(len(src)), p, int64(i)*1024, sf.fetch)
		if err != nil || n != 1024 || !bytes.Equal(p, src[i*1024:(i+1)*1024]) {
			t.Fatalf("block %d: n=%d err=%v", i, n, err)
		}
	}
	// Blocks 1..4 were demand-served from prefetched pages; the scan keeps
	// arming deeper read-ahead, so only count demand fetches via misses.
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (only block 0)", st.Misses)
	}

	// A random jump resets the streak: no prefetch beyond it until the
	// scan resumes.
	c2 := New(Config{Capacity: 1 << 20, BlockSize: 1024, ReadAhead: 4})
	sf2 := &sourceFetch{src: src}
	if _, err := c2.ReadThrough(ctx, "k", int64(len(src)), p, 9*1024, sf2.fetch); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if st := c2.Stats(); st.Prefetched != 0 {
		t.Fatalf("prefetched after random jump = %d, want 0", st.Prefetched)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestInvalidateDropsBlocksAndFencesInflight(t *testing.T) {
	sf := &sourceFetch{src: randBytes(4096, 7)}
	c := New(Config{Capacity: 1 << 20, BlockSize: 1024})
	ctx := context.Background()
	p := make([]byte, 1024)

	if _, err := c.ReadThrough(ctx, "k", 4096, p, 0, sf.fetch); err != nil {
		t.Fatal(err)
	}
	if !c.Contains("k", 0) {
		t.Fatal("block not resident")
	}
	c.Invalidate("k")
	if c.Contains("k", 0) || c.Len() != 0 {
		t.Fatal("Invalidate left blocks behind")
	}

	// Fence: a fetch in flight across an Invalidate must not install its
	// (possibly stale) result.
	gated := &sourceFetch{src: sf.src, gate: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		q := make([]byte, 1024)
		_, err := c.ReadThrough(ctx, "k", 4096, q, 1024, gated.fetch)
		done <- err
	}()
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.inflight) == 1
	})
	c.Invalidate("k")
	close(gated.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if c.Contains("k", 1024) {
		t.Fatal("stale in-flight block installed after Invalidate")
	}
}

func TestPeekSpanAndPutSpan(t *testing.T) {
	src := randBytes(8192, 8)
	c := New(Config{Capacity: 1 << 20, BlockSize: 1024})
	p := make([]byte, 2048)

	if c.PeekSpan("k", p, 0) {
		t.Fatal("peek on empty cache succeeded")
	}

	// Unaligned span [100, 5000): only blocks 1..3 are fully covered.
	c.PutSpan("k", c.Generation(), 100, src[100:5000], false)
	if c.Contains("k", 0) || !c.Contains("k", 1024) || !c.Contains("k", 3*1024) || c.Contains("k", 4*1024) {
		t.Fatalf("PutSpan cached wrong blocks (len=%d)", c.Len())
	}
	if !c.PeekSpan("k", p, 1024) {
		t.Fatal("peek of cached span failed")
	}
	if !bytes.Equal(p, src[1024:3072]) {
		t.Fatal("peek returned wrong bytes")
	}
	// Span straddling a missing block fails without partial effects on
	// counters beyond one miss.
	if c.PeekSpan("k", p, 3*1024) {
		t.Fatal("peek across missing block 4 succeeded")
	}

	// eof=true caches the trailing partial block.
	c2 := New(Config{Capacity: 1 << 20, BlockSize: 1024})
	c2.PutSpan("k", c2.Generation(), 0, src[:1500], true)
	if !c2.Contains("k", 0) || !c2.Contains("k", 1024) {
		t.Fatal("eof PutSpan missed blocks")
	}
	q := make([]byte, 1500)
	if !c2.PeekSpan("k", q, 0) || !bytes.Equal(q, src[:1500]) {
		t.Fatal("peek of eof span failed")
	}
}

func TestPutSpanStaleGenerationDropped(t *testing.T) {
	c := New(Config{Capacity: 1 << 20, BlockSize: 1024})
	gen := c.Generation() // snapshot "before the network fetch"
	c.Invalidate("k")     // a Put/Delete races the fetch
	c.PutSpan("k", gen, 0, bytes.Repeat([]byte{'s'}, 1024), true)
	if c.Len() != 0 {
		t.Fatal("stale span installed despite intervening Invalidate")
	}
	// With a current snapshot the install goes through.
	c.PutSpan("k", c.Generation(), 0, bytes.Repeat([]byte{'f'}, 1024), true)
	if c.Len() != 1 {
		t.Fatal("fresh span rejected")
	}
}

func TestJoinerRetriesAfterOwnerCancelled(t *testing.T) {
	var calls atomic.Int64
	gate := make(chan struct{})
	fetch := func(ctx context.Context, off, length int64) ([]byte, error) {
		if calls.Add(1) == 1 {
			<-gate // first (owner) fetch parks until its ctx dies
			return nil, ctx.Err()
		}
		return bytes.Repeat([]byte{'x'}, int(length)), nil
	}
	c := New(Config{Capacity: 1 << 20, BlockSize: 1024})

	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerDone := make(chan error, 1)
	go func() {
		p := make([]byte, 1024)
		_, err := c.ReadThrough(ownerCtx, "k", 4096, p, 0, fetch)
		ownerDone <- err
	}()
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.inflight) == 1
	})

	joinerDone := make(chan error, 1)
	go func() {
		p := make([]byte, 1024)
		_, err := c.ReadThrough(context.Background(), "k", 4096, p, 0, fetch)
		if err == nil && !bytes.Equal(p, bytes.Repeat([]byte{'x'}, 1024)) {
			err = errors.New("wrong bytes")
		}
		joinerDone <- err
	}()
	waitFor(t, func() bool { return c.joins.Load() == 1 })

	cancelOwner()
	close(gate)
	if err := <-ownerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v", err)
	}
	// The joiner's context is alive: it must not inherit the owner's
	// cancellation but fetch the block itself.
	if err := <-joinerDone; err != nil {
		t.Fatalf("joiner err = %v, want nil via retry", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("fetch calls = %d, want 2 (owner + joiner retry)", calls.Load())
	}
}

func TestReadAheadStopsAtLearnedEOF(t *testing.T) {
	src := randBytes(3*1024+512, 9) // blocks 0..3, block 3 short
	sf := &sourceFetch{src: src}
	c := New(Config{Capacity: 1 << 20, BlockSize: 1024, ReadAhead: 4})
	ctx := context.Background()
	p := make([]byte, 1024)

	// Size unknown (-1): the first burst may ask past the end once, but the
	// short answer teaches the cache where the object stops.
	if _, err := c.ReadThrough(ctx, "k", -1, p, 0, sf.fetch); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.Len() == 4 }) // blocks 0..3 resident
	pastEnd := func() (n int64) {
		sf.spans.Lock()
		defer sf.spans.Unlock()
		for _, sp := range sf.spans.seen {
			if sp.Off+sp.Len > int64(len(src)) {
				n++
			}
		}
		return n
	}
	waitFor(t, func() bool { return pastEnd() >= 1 })
	first := pastEnd()

	// Continue the scan: read-ahead must not probe past the end again.
	for i := 1; i <= 3; i++ {
		if _, err := c.ReadThrough(ctx, "k", -1, p, int64(i)*1024, sf.fetch); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if now := pastEnd(); now != first {
		t.Fatalf("past-end probes grew %d -> %d after EOF was learned", first, now)
	}
}

func TestFetchErrorNotCached(t *testing.T) {
	fail := errors.New("boom")
	calls := 0
	fetch := func(ctx context.Context, off, length int64) ([]byte, error) {
		calls++
		if calls == 1 {
			return nil, fail
		}
		return make([]byte, length), nil
	}
	c := New(Config{Capacity: 1 << 20, BlockSize: 1024})
	p := make([]byte, 1024)
	if _, err := c.ReadThrough(context.Background(), "k", 4096, p, 0, fetch); !errors.Is(err, fail) {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 {
		t.Fatal("error result cached")
	}
	if _, err := c.ReadThrough(context.Background(), "k", 4096, p, 0, fetch); err != nil {
		t.Fatalf("retry after error: %v", err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d", calls)
	}
}

func TestDistinctKeysDoNotCollide(t *testing.T) {
	c := New(Config{Capacity: 1 << 20, BlockSize: 1024})
	a := bytes.Repeat([]byte{'a'}, 1024)
	b := bytes.Repeat([]byte{'b'}, 1024)
	c.PutSpan("ka", c.Generation(), 0, a, true)
	c.PutSpan("kb", c.Generation(), 0, b, true)
	p := make([]byte, 1024)
	if !c.PeekSpan("ka", p, 0) || !bytes.Equal(p, a) {
		t.Fatal("ka corrupted")
	}
	c.Invalidate("ka")
	if c.PeekSpan("ka", p, 0) {
		t.Fatal("ka survived invalidate")
	}
	if !c.PeekSpan("kb", p, 0) || !bytes.Equal(p, b) {
		t.Fatal("kb lost by ka invalidate")
	}
}
