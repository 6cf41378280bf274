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

// sourceFetch serves fetches out of src, counting calls, optionally
// blocking on gate to let tests hold a fetch in flight.
type sourceFetch struct {
	src   []byte
	calls atomic.Int64
	gate  chan struct{} // nil = never block
}

func (s *sourceFetch) fetch(ctx context.Context, off, length int64) ([]byte, error) {
	s.calls.Add(1)
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
	if len(c.blocks) != 2 || c.used != 2048 {
		t.Fatalf("resident blocks = %d of %d bytes, want 2 of 2048", len(c.blocks), c.used)
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
	if len(c.blocks) != 4 || c.lru.Len() != 4 || c.used != 4096 {
		t.Fatalf("resident blocks = %d of %d bytes, want 4 of 4096", len(c.blocks), c.used)
	}
	// Oldest blocks are gone, newest present.
	if resident(c, "k", 0) || !resident(c, "k", 7*1024) {
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
	if len(c.blocks) != 0 {
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
	ctx := context.Background()
	a := &sourceFetch{src: bytes.Repeat([]byte{'a'}, 1024)}
	b := &sourceFetch{src: bytes.Repeat([]byte{'b'}, 1024)}
	p := make([]byte, 1024)
	for i := 0; i < 2; i++ {
		if _, err := c.ReadThrough(ctx, "ka", 1024, p, 0, a.fetch); err != nil || !bytes.Equal(p, a.src) {
			t.Fatalf("ka read %d: err=%v", i, err)
		}
		if _, err := c.ReadThrough(ctx, "kb", 1024, p, 0, b.fetch); err != nil || !bytes.Equal(p, b.src) {
			t.Fatalf("kb read %d: err=%v", i, err)
		}
	}
	if a.calls.Load() != 1 || b.calls.Load() != 1 {
		t.Fatalf("fetch calls = %d, %d, want one per key", a.calls.Load(), b.calls.Load())
	}
}

// resident reports whether the block holding byte off of key is cached.
func resident(c *Cache, key string, off int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.blocks[blockKey{key, off / c.bs}]
	return ok
}
