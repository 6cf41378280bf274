package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"godavix/internal/httpserv"
	"godavix/internal/rangev"
)

// TestConcurrentVectorReadsUnderCap hammers one client with parallel
// ReadVec and GetRange traffic (each ReadVec itself fanning out batches)
// and asserts the two load-bearing invariants of the parallel pipeline:
// the pool never exceeds MaxPerHost connections to the host, and every
// scatter is byte-exact. Run under -race this also proves the batch
// goroutines never write overlapping destination bytes.
func TestConcurrentVectorReadsUnderCap(t *testing.T) {
	const maxPerHost = 4
	env := newEnv(t, Options{
		Strategy:   StrategyNone,
		MaxPerHost: maxPerHost,
	})
	env.startServer(t, "dpm1:80", httpserv.Options{})
	blob := make([]byte, 1<<20)
	rand.New(rand.NewSource(11)).Read(blob)
	if err := env.stores["dpm1:80"].Put("/blob", blob); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	stop := make(chan struct{})
	var peak atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := int64(env.client.pool.ActiveCount("dpm1:80")); n > peak.Load() {
				peak.Store(n)
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 15; i++ {
				if i%3 == 2 {
					off := rng.Int63n(int64(len(blob)) - 4096)
					got, err := env.client.GetRange(ctx, "dpm1:80", "/blob", off, 4096)
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(got, blob[off:off+4096]) {
						t.Errorf("GetRange mismatch at %d", off)
						return
					}
					continue
				}
				// More fragments than one request carries, each in a 1 KiB
				// slot of its own: a multi-batch vector read.
				k := maxRangesPerRequest + 1 + rng.Intn(maxRangesPerRequest)
				slots := rng.Perm(len(blob) / 1024)[:k]
				ranges := make([]rangev.Range, k)
				dsts := make([][]byte, k)
				for j, slot := range slots {
					ranges[j] = rangev.Range{Off: int64(slot)*1024 + rng.Int63n(512), Len: rng.Int63n(255) + 1}
					dsts[j] = make([]byte, ranges[j].Len)
				}
				if err := env.client.ReadVec(ctx, "dpm1:80", "/blob", ranges, dsts); err != nil {
					t.Error(err)
					return
				}
				for j := range ranges {
					if !bytes.Equal(dsts[j], blob[ranges[j].Off:ranges[j].End()]) {
						t.Errorf("ReadVec mismatch: range %d [%d,+%d)", j, ranges[j].Off, ranges[j].Len)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)

	if p := peak.Load(); p > maxPerHost {
		t.Fatalf("pool peaked at %d connections, cap is %d", p, maxPerHost)
	}
	if p := env.client.pool.ActiveCount("dpm1:80"); p > maxPerHost {
		t.Fatalf("active count %d exceeds cap %d after run", p, maxPerHost)
	}
}

// TestReadVecParallelCancelNeverSucceeds: a cancelled context must never
// yield a nil error from a parallel vectored read — batches drained by the
// cancellation leave dsts unfilled, and a silent success would let
// readVecCached poison the block cache with garbage.
func TestReadVecParallelCancelNeverSucceeds(t *testing.T) {
	env := newEnv(t, Options{Strategy: StrategyNone})
	env.startServer(t, "dpm1:80", httpserv.Options{})
	blob := make([]byte, 256<<10)
	if err := env.stores["dpm1:80"].Put("/blob", blob); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ranges, dsts := spacedRanges(6*maxRangesPerRequest, 128, 64)
	for i := 0; i < 50; i++ {
		if err := env.client.ReadVec(ctx, "dpm1:80", "/blob", ranges, dsts); err == nil {
			t.Fatal("cancelled ReadVec reported success")
		}
	}
}

// TestReadVecParallelFirstErrorWins: when one batch fails, ReadVec returns
// the genuine batch error (here a 404 every replica would reproduce), not a
// sibling's context cancellation.
func TestReadVecParallelFirstErrorWins(t *testing.T) {
	env := newEnv(t, Options{Strategy: StrategyNone})
	env.startServer(t, "dpm1:80", httpserv.Options{})
	blob := make([]byte, 64<<10)
	if err := env.stores["dpm1:80"].Put("/blob", blob); err != nil {
		t.Fatal(err)
	}

	// Ranges that do not touch: many frames, many batches; the read targets a path
	// that vanishes mid-test is hard to stage, so use a missing object —
	// every batch 404s and the first error must surface as ErrNotFound.
	ranges, dsts := spacedRanges(8*maxRangesPerRequest, 64, 16)
	err := env.client.ReadVec(context.Background(), "dpm1:80", "/missing", ranges, dsts)
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrAllReplicasFailed) {
		t.Fatalf("err = %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("sibling cancellation leaked: %v", err)
	}
}
