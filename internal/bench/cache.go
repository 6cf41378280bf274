package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"godavix/internal/blockcache"
	"godavix/internal/core"
	"godavix/internal/httpserv"
	"godavix/internal/netsim"
)

// Cache-benchmark geometry: a file of cacheFileSize bytes read in
// cacheChunk pieces (one cache block per piece).
const (
	cacheFileSize = 2 << 20
	cacheChunk    = 64 << 10
	cachePath     = "/store/cache.dat"
)

// cachedOpts is the client configuration under test: block cache sized for
// the whole file, read-ahead deep enough to keep a WAN pipe busy, and a
// stat TTL absorbing the Open-time HEAD on reopen.
func cachedOpts() core.Options {
	return core.Options{
		Strategy:      core.StrategyNone,
		CacheSize:     8 << 20,
		BlockSize:     cacheChunk,
		PrefetchDepth: 8,
		StatTTL:       time.Minute,
	}
}

// uncachedOpts is the baseline: today's direct-to-network read path.
func uncachedOpts() core.Options {
	return core.Options{Strategy: core.StrategyNone}
}

// cacheDataset builds the deterministic file image served in every run.
func cacheDataset(size int) []byte {
	data := make([]byte, size)
	rand.New(rand.NewSource(7)).Read(data)
	return data
}

// cacheRepeatedRead reads the same `hot` leading chunks of the file over
// and over (`passes` full passes) — the block-reuse pattern of a shared
// analysis working set.
func cacheRepeatedRead(ctx context.Context, f *core.File, hot, passes int) error {
	buf := make([]byte, cacheChunk)
	for p := 0; p < passes; p++ {
		for i := 0; i < hot; i++ {
			if _, err := f.ReadAt(buf, int64(i)*cacheChunk); err != nil {
				return err
			}
		}
	}
	return nil
}

// cacheSequentialScan reads the whole file front to back in chunk steps —
// the contiguous scan the read-ahead arms on at once.
func cacheSequentialScan(ctx context.Context, f *core.File) error {
	buf := make([]byte, cacheChunk)
	size := f.Size()
	for off := int64(0); off < size; off += cacheChunk {
		if _, err := f.ReadAt(buf, off); err != nil {
			return err
		}
	}
	return nil
}

// runCacheWorkload times one cold-client execution of workload on a fresh
// WAN testbed, returning the wall-clock of the read loop (Open excluded),
// the client cache counters, and how many GETs reached the server.
func runCacheWorkload(copts core.Options, workload func(context.Context, *core.File) error) (time.Duration, blockcache.Stats, int64, error) {
	env, err := NewEnv(netsim.WAN(), httpserv.Options{})
	if err != nil {
		return 0, blockcache.Stats{}, 0, err
	}
	defer env.Close()
	if err := env.Store.Put(cachePath, cacheDataset(cacheFileSize)); err != nil {
		return 0, blockcache.Stats{}, 0, err
	}
	client, err := env.NewHTTPClient(copts)
	if err != nil {
		return 0, blockcache.Stats{}, 0, err
	}
	defer client.Close()

	ctx := context.Background()
	f, err := env.OpenHTTP(ctx, client, cachePath)
	if err != nil {
		return 0, blockcache.Stats{}, 0, err
	}
	gets0 := env.HTTPServer.RequestsByMethod("GET")
	timer := startTimer()
	if err := workload(ctx, f); err != nil {
		return 0, blockcache.Stats{}, 0, err
	}
	elapsed := timer()
	// Let in-flight read-ahead prefetches land before snapshotting: the
	// server counts a GET on arrival, while the client's Prefetched counter
	// only increments on completion, so an immediate snapshot can catch the
	// two mid-flight and disagree.
	gets := env.HTTPServer.RequestsByMethod("GET") - gets0
	for i := 0; i < 40; i++ {
		time.Sleep(25 * time.Millisecond)
		now := env.HTTPServer.RequestsByMethod("GET") - gets0
		if now == gets && i > 0 {
			break
		}
		gets = now
	}
	return elapsed, client.CacheStats(), gets, nil
}

// CacheBench measures the client-side block cache + read-ahead subsystem
// (internal/blockcache) on the WAN profile: a repeated-read working set and
// a sequential whole-file scan, cached versus uncached. This experiment is
// not in the paper — it quantifies the §2.2–§2.3 round-trip-hiding idea
// extended to a client page cache.
func CacheBench(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	table := &Table{
		Title:   "Block cache: repeated-read and sequential-scan on WAN, cached vs uncached",
		Columns: []string{"workload", "uncached", "cached", "speedup", "hit rate", "GETs uncached", "GETs cached"},
		Notes: []string{
			fmt.Sprintf("file %d KiB, block %d KiB, read-ahead 8, WAN profile (%v RTT)",
				cacheFileSize>>10, cacheChunk>>10, netsim.WAN().RTT),
			"cached clients start cold each repeat; hits accrue within one run",
		},
	}

	workloads := []struct {
		name string
		run  func(context.Context, *core.File) error
	}{
		{"repeated-read (8 hot blocks x 8 passes)", func(ctx context.Context, f *core.File) error {
			return cacheRepeatedRead(ctx, f, 8, 8)
		}},
		{"sequential-scan (full file)", cacheSequentialScan},
	}

	for _, w := range workloads {
		base := &Sample{}
		cached := &Sample{}
		var baseGets, cachedGets int64
		var stats blockcache.Stats
		for rep := 0; rep < opts.Repeats; rep++ {
			d, _, g, err := runCacheWorkload(uncachedOpts(), w.run)
			if err != nil {
				return nil, err
			}
			base.AddDuration(d)
			baseGets = g

			d, st, g, err := runCacheWorkload(cachedOpts(), w.run)
			if err != nil {
				return nil, err
			}
			cached.AddDuration(d)
			cachedGets = g
			stats = st
		}
		hitRate := 0.0
		if total := stats.Hits + stats.Misses; total > 0 {
			hitRate = float64(stats.Hits) / float64(total)
		}
		table.AddRow(
			w.name,
			Seconds(base),
			Seconds(cached),
			fmt.Sprintf("%.2fx", base.Mean()/cached.Mean()),
			fmt.Sprintf("%.0f%%", hitRate*100),
			fmt.Sprint(baseGets),
			fmt.Sprint(cachedGets),
		)
	}
	return table, nil
}
