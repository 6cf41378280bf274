package core

import (
	"sort"

	"godavix/internal/blockcache"
	"godavix/internal/obs"
	"godavix/internal/pool"
)

// Snapshot is the client's three stat surfaces — engine counters, cache
// counters, pool counters — captured in one call. Each component snapshot
// is internally consistent; the three are taken back to back, so counters
// that span components (a cache miss and the request it caused) can differ
// by whatever landed in between. Expo renders the whole thing for the
// exposition endpoints.
type Snapshot struct {
	// Engine is the request-engine view: requests, retries, redirects,
	// failovers, breaker trips, wire bytes, per-op latency.
	Engine Metrics `json:"engine"`
	// Cache is the block-cache and stat-cache view.
	Cache blockcache.Stats `json:"cache"`
	// Pool is the connection-pool view.
	Pool pool.Stats `json:"pool"`
}

// Snapshot captures engine, cache and pool counters in one call. Safe to
// call concurrently with in-flight operations.
func (c *Client) Snapshot() Snapshot {
	return Snapshot{
		Engine: c.Metrics(),
		Cache:  c.CacheStats(),
		Pool:   c.pool.Stats(),
	}
}

// Expo flattens the snapshot into the exposition shape served by /metrics
// and /debug/vars: one counter list spanning engine, cache and pool, plus
// the per-op latency quantiles sorted by op name.
func (s Snapshot) Expo() obs.Snapshot {
	out := obs.Snapshot{Counters: []obs.Counter{
		{Name: "requests_total", Help: "HTTP requests written to a connection (hops, retries and failover attempts each count).", Value: s.Engine.Requests},
		{Name: "retries_total", Help: "Extra attempts at the same target (stale-connection replays plus policy retries).", Value: s.Engine.Retries},
		{Name: "redirects_total", Help: "Followed 3xx hops.", Value: s.Engine.Redirects},
		{Name: "failovers_total", Help: "Switches to an alternate Metalink replica.", Value: s.Engine.Failovers},
		{Name: "breaker_trips_total", Help: "Per-host health-scoreboard demotions.", Value: s.Engine.BreakerTrips},
		{Name: "bytes_up_total", Help: "Wire bytes sent across settled exchanges (headers included).", Value: s.Engine.BytesUp},
		{Name: "bytes_down_total", Help: "Wire bytes received across settled exchanges (headers included).", Value: s.Engine.BytesDown},
		{Name: "kernel_bytes_up_total", Help: "Upload payload bytes moved by the kernel zero-copy path (sendfile/splice).", Value: s.Engine.KernelBytesUp},
		{Name: "kernel_bytes_down_total", Help: "Download payload bytes moved by the kernel zero-copy path (sendfile/splice).", Value: s.Engine.KernelBytesDown},
		{Name: "pooled_bytes_up_total", Help: "Upload payload bytes copied through pooled userspace buffers.", Value: s.Engine.PooledBytesUp},
		{Name: "pooled_bytes_down_total", Help: "Download payload bytes copied through pooled userspace buffers.", Value: s.Engine.PooledBytesDown},
		{Name: "transfers_verified_total", Help: "Transfers whose inline end-to-end digest matched the server value.", Value: s.Engine.TransfersVerified},
		{Name: "checksum_mismatches_total", Help: "Transfers failed by an inline digest mismatch.", Value: s.Engine.ChecksumMismatches},
		{Name: "hedges_issued_total", Help: "Chunk reads that outlived their latency budget and were raced against a standby replica.", Value: s.Engine.HedgesIssued},
		{Name: "hedge_wins_total", Help: "Hedged chunk races the standby replica won.", Value: s.Engine.HedgeWins},
		{Name: "hedge_wasted_bytes_total", Help: "Payload bytes the losing side of a hedged race had delivered when cancelled.", Value: s.Engine.HedgeWastedBytes},
		{Name: "prefetch_issued_total", Help: "Speculative fetch requests put on the wire (cache read-ahead plans and pipelined window fills).", Value: s.Engine.PrefetchIssued},
		{Name: "prefetch_bytes_total", Help: "Bytes requested by speculative fetches.", Value: s.Engine.PrefetchBytes},
		{Name: "prefetch_cancelled_total", Help: "Speculative fetches cancelled mid-flight (pattern jump, retrain, shutdown).", Value: s.Engine.PrefetchCancelled},
		{Name: "resumed_bytes_total", Help: "Bytes proven intact against a checkpoint journal and skipped on resume.", Value: s.Engine.ResumedBytes},
		{Name: "resume_verify_failures_total", Help: "Journaled chunks whose digest no longer matched on resume and were re-fetched.", Value: s.Engine.ResumeVerifyFailures},
		{Name: "uploads_fell_back_serial_total", Help: "Chunked uploads refused ranged PUTs and sent as one whole-body PUT instead.", Value: s.Engine.UploadsFellBackSerial},
		{Name: "cache_hits_total", Help: "Blocks served from the in-memory cache.", Value: s.Cache.Hits},
		{Name: "cache_misses_total", Help: "Blocks a demand read had to fetch.", Value: s.Cache.Misses},
		{Name: "cache_evictions_total", Help: "Blocks dropped to make room at capacity.", Value: s.Cache.Evictions},
		{Name: "cache_prefetched_total", Help: "Blocks fetched by the read-ahead engine.", Value: s.Cache.Prefetched},
		{Name: "cache_singleflight_joins_total", Help: "Reads that joined another reader's in-flight fetch.", Value: s.Cache.SingleFlightJoins},
		{Name: "cache_prefetch_issued_spans_total", Help: "Ranges the cache's speculative fetches carried.", Value: s.Cache.PrefetchIssuedSpans},
		{Name: "cache_prefetch_issued_bytes_total", Help: "Bytes the cache's speculative fetches requested.", Value: s.Cache.PrefetchIssuedBytes},
		{Name: "cache_prefetch_useful_bytes_total", Help: "Prefetched bytes a demand read later consumed.", Value: s.Cache.PrefetchUsefulBytes},
		{Name: "cache_prefetch_wasted_bytes_total", Help: "Prefetched bytes evicted or invalidated untouched.", Value: s.Cache.PrefetchWastedBytes},
		{Name: "cache_prefetch_cancelled_total", Help: "Cache speculation dropped before issue (budget exhaustion).", Value: s.Cache.PrefetchCancelled},
		{Name: "cache_bytes", Help: "Resident cache payload bytes.", Value: s.Cache.BytesCached, Gauge: true},
		{Name: "stat_hits_total", Help: "Metadata-cache hits (negative 404 hits included).", Value: s.Cache.StatHits},
		{Name: "stat_misses_total", Help: "Metadata-cache misses.", Value: s.Cache.StatMisses},
		{Name: "pool_dials_total", Help: "New transport connections established.", Value: s.Pool.Dials},
		{Name: "pool_reuses_total", Help: "Requests served on a recycled connection.", Value: s.Pool.Reuses},
		{Name: "pool_discards_total", Help: "Connections dropped (TTL, max-uses, error, overflow).", Value: s.Pool.Discards},
		{Name: "pool_tls_handshakes_total", Help: "Completed TLS handshakes.", Value: s.Pool.TLSHandshakes},
		{Name: "pool_tls_resumes_total", Help: "TLS handshakes that resumed a cached session.", Value: s.Pool.TLSResumes},
	}}
	ops := make([]string, 0, len(s.Engine.Ops))
	for op := range s.Engine.Ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		st := s.Engine.Ops[op]
		out.Quantiles = append(out.Quantiles, obs.Quantile{
			Op: op, Count: st.Count, P50: st.P50, P90: st.P90, P99: st.P99,
		})
	}
	return out
}
