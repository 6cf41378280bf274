package blockcache

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// vecFetcher serves FetchVec requests out of src, counting calls,
// optionally blocking on gate to let tests hold a speculative fetch in
// flight.
type vecFetcher struct {
	src   []byte
	calls atomic.Int64
	gate  chan struct{} // nil = never block
}

func (v *vecFetcher) fetch(ctx context.Context, key string, spans []Span, dsts [][]byte) error {
	v.calls.Add(1)
	if v.gate != nil {
		select {
		case <-v.gate:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for i, sp := range spans {
		copy(dsts[i], v.src[sp.Off:sp.Off+sp.Len])
	}
	return nil
}

func TestStridePlannerArmsContiguousScanAtOnce(t *testing.T) {
	p := NewStridePlanner(3)

	// A scan starting at block 0 arms immediately, planning the next three
	// one-block reads.
	if got := p.Plan("k", 0, 0); !reflect.DeepEqual(got, []BlockRange{{1, 1}, {2, 1}, {3, 1}}) {
		t.Fatalf("first contiguous plan = %v", got)
	}
	// Continuing the scan keeps planning from the new frontier.
	if got := p.Plan("k", 1, 1); !reflect.DeepEqual(got, []BlockRange{{2, 1}, {3, 1}, {4, 1}}) {
		t.Fatalf("second contiguous plan = %v", got)
	}
	// A random jump is a stride seen once: nothing planned.
	if got := p.Plan("k", 7, 7); got != nil {
		t.Fatalf("jump planned %v", got)
	}
	// Resuming where the jump ended is contiguous again.
	if got := p.Plan("k", 8, 8); !reflect.DeepEqual(got, []BlockRange{{9, 1}, {10, 1}, {11, 1}}) {
		t.Fatalf("resumed plan = %v", got)
	}
	// Block 10 is known to lie past the end: nothing is planned there, and
	// hints beyond it are dropped.
	p.LearnEOF("k", 10)
	if got := p.Plan("k", 9, 9); len(got) != 0 {
		t.Fatalf("plan past EOF = %v", got)
	}
	if got := p.Hint("k", []BlockRange{{20, 4}}); len(got) != 0 {
		t.Fatalf("hint past EOF = %v", got)
	}

	// Byte-contiguous reads that share a boundary block arm too.
	q := NewStridePlanner(2)
	q.Plan("s", 0, 1)
	if got := q.Plan("s", 1, 2); !reflect.DeepEqual(got, []BlockRange{{3, 2}, {5, 2}}) {
		t.Fatalf("overlapping contiguous plan = %v", got)
	}
	// A first read elsewhere than block 0 is not a scan yet.
	if got := q.Plan("fresh", 5, 5); got != nil {
		t.Fatalf("first read at block 5 planned %v", got)
	}
}

func TestStridePlannerLearnsSparsePattern(t *testing.T) {
	p := NewStridePlanner(2)

	// One observation away from block 0: no pattern yet.
	if got := p.Plan("k", 1, 2); got != nil {
		t.Fatalf("first read planned %v", got)
	}
	// Stride seen once: still not confident.
	if got := p.Plan("k", 5, 6); got != nil {
		t.Fatalf("single-streak planned %v", got)
	}
	// Same stride twice: predict the next two reads at that stride.
	if got := p.Plan("k", 9, 10); !reflect.DeepEqual(got, []BlockRange{{13, 2}, {17, 2}}) {
		t.Fatalf("stride plan = %v", got)
	}
	// Learned EOF clips predictions mid-run and drops those past it.
	p.LearnEOF("k", 18)
	if got := p.Plan("k", 13, 14); !reflect.DeepEqual(got, []BlockRange{{17, 1}}) {
		t.Fatalf("clipped plan = %v", got)
	}
	// Hints are clipped against the same learned bound.
	if got := p.Hint("k", []BlockRange{{17, 4}, {21, 2}}); !reflect.DeepEqual(got, []BlockRange{{17, 1}}) {
		t.Fatalf("clipped hint = %v", got)
	}
	// A backward jump resets the pattern.
	if got := p.Plan("k", 5, 6); got != nil {
		t.Fatalf("backward jump planned %v", got)
	}

	// A stride scan that starts at block 0 still needs the stride twice:
	// the first read arms only the contiguous guess.
	q := NewStridePlanner(1)
	if got := q.Plan("s", 0, 0); !reflect.DeepEqual(got, []BlockRange{{1, 1}}) {
		t.Fatalf("first read at block 0 planned %v", got)
	}
	if got := q.Plan("s", 3, 3); got != nil {
		t.Fatalf("stride 3 seen once planned %v", got)
	}
	if got := q.Plan("s", 6, 6); !reflect.DeepEqual(got, []BlockRange{{9, 1}}) {
		t.Fatalf("stride 3 plan = %v", got)
	}
}

func TestPrefetchVecSingleFlightDedup(t *testing.T) {
	src := randBytes(8192, 21)
	vf := &vecFetcher{src: src, gate: make(chan struct{})}
	sf := &sourceFetch{src: src}
	c := New(Config{Capacity: 1 << 20, BlockSize: 1024, ReadAhead: 2, FetchVec: vf.fetch})

	// One hint covering blocks 2-3: prefetchVec reserves both blocks with
	// flights before returning, then fetches them as one vectored request
	// held open by the gate.
	c.Hint("k", int64(len(src)), []Span{{Off: 2048, Len: 2048}}, sf.fetch)

	done := make(chan struct{})
	p := make([]byte, 1024)
	go func() {
		defer close(done)
		if _, err := c.ReadThrough(context.Background(), "k", int64(len(src)), p, 2048, sf.fetch); err != nil {
			t.Error(err)
		}
	}()
	// The demand read must be parked on the speculative flight, not off
	// fetching the block itself.
	select {
	case <-done:
		t.Fatal("demand read completed before the prefetch settled")
	case <-time.After(20 * time.Millisecond):
	}
	close(vf.gate)
	<-done

	if !bytes.Equal(p, src[2048:3072]) {
		t.Fatal("wrong bytes from joined prefetch")
	}
	if got := sf.calls.Load(); got != 0 {
		t.Fatalf("demand fetch hit the network %d times despite the in-flight prefetch", got)
	}
	if got := vf.calls.Load(); got != 1 {
		t.Fatalf("vectored prefetch calls = %d, want 1", got)
	}
	st := c.Stats()
	if st.SingleFlightJoins == 0 {
		t.Fatal("demand read did not join the prefetch flight")
	}
	if st.PrefetchIssuedSpans != 1 || st.PrefetchIssuedBytes != 2048 {
		t.Fatalf("issued spans=%d bytes=%d, want 1/2048", st.PrefetchIssuedSpans, st.PrefetchIssuedBytes)
	}
}

func TestPrefetchBudgetExhaustionFallsBackToDemand(t *testing.T) {
	src := randBytes(8192, 22)
	vf := &vecFetcher{src: src, gate: make(chan struct{})}
	sf := &sourceFetch{src: src}
	c := New(Config{
		Capacity: 1 << 20, BlockSize: 1024,
		ReadAhead: 4, FetchVec: vf.fetch,
		PrefetchBudget: 1024, // room for exactly one speculative block
	})

	c.Hint("k", int64(len(src)), []Span{{Off: 0, Len: 4096}}, sf.fetch)
	st := c.Stats()
	if st.PrefetchIssuedBytes != 1024 {
		t.Fatalf("issued %d speculative bytes, budget is 1024", st.PrefetchIssuedBytes)
	}
	if st.PrefetchCancelled == 0 {
		t.Fatal("budget exhaustion not recorded")
	}

	// Demand reads are never throttled: block 3 was dropped from the plan,
	// and fetching it on demand proceeds while speculation holds the whole
	// budget.
	p := make([]byte, 1024)
	n, err := c.ReadThrough(context.Background(), "k", int64(len(src)), p, 3072, sf.fetch)
	if err != nil || n != 1024 || !bytes.Equal(p, src[3072:4096]) {
		t.Fatalf("demand read under exhausted budget: n=%d err=%v", n, err)
	}

	close(vf.gate)
	waitFor(t, func() bool { return c.Contains("k", 0) })
}

func TestPrefetchAccuracyAccounting(t *testing.T) {
	src := randBytes(8192, 23)
	vf := &vecFetcher{src: src}
	sf := &sourceFetch{src: src}
	c := New(Config{Capacity: 1 << 20, BlockSize: 1024, ReadAhead: 2, FetchVec: vf.fetch})

	c.Hint("k", int64(len(src)), []Span{{Off: 2048, Len: 2048}}, sf.fetch)
	waitFor(t, func() bool { return c.Contains("k", 2048) && c.Contains("k", 3072) })

	// A demand read consuming block 2 converts its bytes to useful.
	p := make([]byte, 1024)
	if _, err := c.ReadThrough(context.Background(), "k", int64(len(src)), p, 2048, sf.fetch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, src[2048:3072]) {
		t.Fatal("wrong prefetched bytes")
	}
	st := c.Stats()
	if st.PrefetchUsefulBytes != 1024 {
		t.Fatalf("useful bytes = %d, want 1024", st.PrefetchUsefulBytes)
	}
	if got := sf.calls.Load(); got != 0 {
		t.Fatalf("demand fetch calls = %d, everything should be speculative", got)
	}

	// Invalidate while block 3 is still untouched: its bytes are waste.
	c.Invalidate("k")
	st = c.Stats()
	if st.PrefetchWastedBytes != 1024 {
		t.Fatalf("wasted bytes = %d, want 1024", st.PrefetchWastedBytes)
	}
}

// TestJoinerRefetchesAfterSpeculationFailed: a demand read parked on a
// speculative flight that fails with an ordinary error must not inherit
// it — speculation never fails a demand read — but fetch the block itself.
func TestJoinerRefetchesAfterSpeculationFailed(t *testing.T) {
	src := randBytes(4096, 24)
	boom := errors.New("multi-range request refused")
	gate := make(chan struct{})
	failVec := func(ctx context.Context, _ string, _ []Span, _ [][]byte) error {
		<-gate
		return boom
	}
	sf := &sourceFetch{src: src}
	c := New(Config{Capacity: 1 << 20, BlockSize: 1024, ReadAhead: 2, FetchVec: failVec})

	c.Hint("k", int64(len(src)), []Span{{Off: 1024, Len: 1024}}, sf.fetch)
	done := make(chan error, 1)
	go func() {
		p := make([]byte, 1024)
		_, err := c.ReadThrough(context.Background(), "k", int64(len(src)), p, 1024, sf.fetch)
		if err == nil && !bytes.Equal(p, src[1024:2048]) {
			err = errors.New("wrong bytes")
		}
		done <- err
	}()
	waitFor(t, func() bool { return c.Stats().SingleFlightJoins == 1 })
	close(gate)

	if err := <-done; err != nil {
		t.Fatalf("demand read inherited the failed speculation: %v", err)
	}
	if got := sf.calls.Load(); got != 1 {
		t.Fatalf("demand fetch calls = %d, want 1 (the joiner's own fetch)", got)
	}
}
