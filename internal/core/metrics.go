package core

import (
	"context"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"godavix/internal/obs"
	"godavix/internal/pool"
)

// Metrics is a point-in-time snapshot of what the client has actually done
// on the wire: how many requests it issued, how often the resilience layers
// fired (retries, redirects, replica failovers, breaker trips), how many
// bytes moved, and how long each kind of operation took. Collected with
// plain atomics — snapshotting is safe (and cheap) while operations are in
// flight on other goroutines.
type Metrics struct {
	// Requests counts HTTP requests written to a connection. Redirect
	// hops, retry attempts and failover attempts each count: this is wire
	// traffic, not caller-level operations (see Ops for those).
	Requests int64
	// Retries counts extra attempts at the same target: transparent
	// stale-recycled-connection replays plus RetryPolicy backoff retries.
	Retries int64
	// Redirects counts followed 3xx hops.
	Redirects int64
	// Failovers counts attempts on a replica other than the one a replica
	// ring walk chose first (a read's primary, a chunk's slot), after that
	// choice failed or was breaker-skipped.
	Failovers int64
	// BreakerTrips counts per-host health-scoreboard demotions
	// (consecutive-failure threshold reached, host enters cooldown).
	BreakerTrips int64
	// BytesUp and BytesDown are the wire bytes (headers included) of every
	// settled exchange across the pooled connections. An exchange the
	// engine abandons and re-issues in full — a redirect hop bounced to
	// another node, a stale-recycled-connection replay — is excluded, so a
	// body that crosses the wire twice on the way to its final target is
	// charged once.
	BytesUp   int64
	BytesDown int64
	// PooledBytesUp/PooledBytesDown count transfer payload bytes as they
	// pass through the pooled 64 KiB copy buffers: the chunks of every
	// multi-stream download, and the bodies of PutReader and
	// UploadMultiStream. Header traffic and single-request byte-slice
	// operations never count here.
	// KernelBytesUp/KernelBytesDown are always 0: every payload takes the
	// pooled path. They stay until the committed benchmark stops reading
	// them.
	KernelBytesUp   int64
	KernelBytesDown int64
	PooledBytesUp   int64
	PooledBytesDown int64
	// TransfersVerified counts transfers whose inline end-to-end digest
	// matched the server value; ChecksumMismatches counts the ones that
	// did not (each of those also failed with ErrChecksumMismatch).
	TransfersVerified  int64
	ChecksumMismatches int64
	// HedgesIssued counts chunk reads that outlived their latency budget
	// and got a duplicate request raced against a standby replica;
	// HedgeWins counts the races the standby won; HedgeWastedBytes counts
	// payload bytes the losing side had already delivered when it was
	// cancelled — the duplicate-traffic cost of hedging.
	HedgesIssued     int64
	HedgeWins        int64
	HedgeWastedBytes int64
	// PrefetchIssued counts speculative fetch requests put on the wire:
	// File.ReadVecAsyncCtx calls, rootio's pipelined window fills;
	// PrefetchBytes is the volume they asked for; and PrefetchCancelled
	// counts speculative fetches cancelled mid-flight (pattern jump,
	// retrain, shutdown).
	PrefetchIssued    int64
	PrefetchBytes     int64
	PrefetchCancelled int64
	// ResumedBytes counts bytes a checkpointed transfer proved intact
	// against their journaled digests and skipped re-transferring;
	// ResumeVerifyFailures counts journaled chunks whose digest no longer
	// matched on resume (those chunks were re-fetched, never trusted).
	ResumedBytes         int64
	ResumeVerifyFailures int64
	// UploadsFellBackSerial counts chunked uploads the destination refused
	// ranged PUTs for, which then went out as one whole-body PUT instead —
	// the degraded, single-stream outcome of a multi-stream upload.
	UploadsFellBackSerial int64
	// Ops maps an operation label ("GET", "PUT(range)", "PROPFIND", ...)
	// to its latency distribution as experienced by the caller: one entry
	// per engine execution, retries and failover included.
	Ops map[string]OpStats
}

// OpStats summarizes one operation's caller-observed latency.
type OpStats struct {
	// Count is how many executions were recorded.
	Count int64
	// P50, P90 and P99 are latency quantiles, accurate to the histogram's
	// power-of-two bucket (each quantile is the upper bound of the bucket
	// the rank falls in).
	P50, P90, P99 time.Duration
}

// latBuckets spans 1µs to ~2.3h in power-of-two steps.
const latBuckets = 34

// opHist is a lock-free log2 latency histogram for one operation label.
// The sample count is the bucket sum — kept single-sourced so a snapshot
// taken mid-observe can never see a count/bucket mismatch.
type opHist struct {
	buckets [latBuckets]atomic.Int64
}

// bucketFor maps a duration to its log2-microsecond bucket.
func bucketFor(d time.Duration) int {
	us := d.Microseconds()
	if us <= 0 {
		return 0
	}
	b := bits.Len64(uint64(us))
	if b >= latBuckets {
		b = latBuckets - 1
	}
	return b
}

// bucketCeil is the upper latency bound of bucket b.
func bucketCeil(b int) time.Duration {
	return time.Duration(int64(1)<<uint(b)) * time.Microsecond
}

// quantile returns the latency below which fraction q of the recorded
// samples fall, to bucket resolution. counts is a coherent-enough copy.
func quantile(counts []int64, total int64, q float64) time.Duration {
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for b, n := range counts {
		cum += n
		if cum >= rank {
			return bucketCeil(b)
		}
	}
	return bucketCeil(latBuckets - 1)
}

// metrics is the collector behind Client.Metrics. Every mutation is a
// single atomic add — the healthy path pays a handful of uncontended
// atomics per operation and nothing else.
type metrics struct {
	requests, retries, redirects, failovers, breakerTrips atomic.Int64
	bytesUp, bytesDown                                    atomic.Int64
	pooledBytesUp, pooledBytesDown                        atomic.Int64
	transfersVerified, checksumMismatches                 atomic.Int64
	hedgesIssued, hedgeWins, hedgeWastedBytes             atomic.Int64
	prefetchIssued, prefetchBytes, prefetchCancelled      atomic.Int64
	resumedBytes, resumeVerifyFailures                    atomic.Int64
	uploadsFellBackSerial                                 atomic.Int64
	ops                                                   sync.Map // string -> *opHist
}

// histFor returns (allocating once) the histogram for op.
func (m *metrics) histFor(op string) *opHist {
	if h, ok := m.ops.Load(op); ok {
		return h.(*opHist)
	}
	h, _ := m.ops.LoadOrStore(op, &opHist{})
	return h.(*opHist)
}

// observe records one completed execution of op.
func (m *metrics) observe(op string, d time.Duration) {
	m.histFor(op).buckets[bucketFor(d)].Add(1)
}

// snapshot renders the public view.
func (m *metrics) snapshot() Metrics {
	s := Metrics{
		Requests:              m.requests.Load(),
		Retries:               m.retries.Load(),
		Redirects:             m.redirects.Load(),
		Failovers:             m.failovers.Load(),
		BreakerTrips:          m.breakerTrips.Load(),
		BytesUp:               m.bytesUp.Load(),
		BytesDown:             m.bytesDown.Load(),
		PooledBytesUp:         m.pooledBytesUp.Load(),
		PooledBytesDown:       m.pooledBytesDown.Load(),
		TransfersVerified:     m.transfersVerified.Load(),
		ChecksumMismatches:    m.checksumMismatches.Load(),
		HedgesIssued:          m.hedgesIssued.Load(),
		HedgeWins:             m.hedgeWins.Load(),
		HedgeWastedBytes:      m.hedgeWastedBytes.Load(),
		PrefetchIssued:        m.prefetchIssued.Load(),
		PrefetchBytes:         m.prefetchBytes.Load(),
		PrefetchCancelled:     m.prefetchCancelled.Load(),
		ResumedBytes:          m.resumedBytes.Load(),
		ResumeVerifyFailures:  m.resumeVerifyFailures.Load(),
		UploadsFellBackSerial: m.uploadsFellBackSerial.Load(),
		Ops:                   map[string]OpStats{},
	}
	m.ops.Range(func(k, v any) bool {
		h := v.(*opHist)
		counts := make([]int64, latBuckets)
		var total int64
		for b := range h.buckets {
			n := h.buckets[b].Load()
			counts[b] = n
			total += n
		}
		s.Ops[k.(string)] = OpStats{
			Count: total,
			P50:   quantile(counts, total, 0.50),
			P90:   quantile(counts, total, 0.90),
			P99:   quantile(counts, total, 0.99),
		}
		return true
	})
	return s
}

// Metrics snapshots the client-wide counters and per-op latency quantiles.
// Safe to call concurrently with in-flight operations.
func (c *Client) Metrics() Metrics { return c.metrics.snapshot() }

// countingDialer wraps the user's Dialer so every connection reports its
// wire bytes (headers included) to the client metrics.
type countingDialer struct {
	d pool.Dialer
	m *metrics
}

func (cd countingDialer) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	conn, err := cd.d.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, m: cd.m}, nil
}

// countingConn stages each exchange's wire bytes in per-connection pending
// counters. Response.Close settles them: flush commits the exchange to the
// client-wide BytesUp/BytesDown, drop forgets an abandoned redirect hop so
// its re-sent request is not double-counted. An exchange that dies before
// reaching Close (a stale-connection replay, a failed dial-out) is
// discarded with the connection, pending bytes and all — only exchanges the
// engine kept count. The counters are atomics because an exchange's reads
// and writes can interleave with the pool reaper closing the conn.
type countingConn struct {
	net.Conn
	m                *metrics
	pendUp, pendDown atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.pendDown.Add(int64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.pendUp.Add(int64(n))
	}
	return n, err
}

// flush commits the pending exchange to the client-wide counters.
func (c *countingConn) flush() {
	if n := c.pendDown.Swap(0); n != 0 {
		c.m.bytesDown.Add(n)
	}
	if n := c.pendUp.Swap(0); n != 0 {
		c.m.bytesUp.Add(n)
	}
}

// drop forgets the pending exchange (abandoned redirect hop).
func (c *countingConn) drop() {
	c.pendDown.Store(0)
	c.pendUp.Store(0)
}

// recordPayload counts n transfer payload bytes moved in direction dir. A
// chunked upload body (ContentLength -1) reports nothing.
func (c *Client) recordPayload(dir obs.Direction, n int64) {
	if n <= 0 {
		return
	}
	if dir == obs.Down {
		c.metrics.pooledBytesDown.Add(n)
	} else {
		c.metrics.pooledBytesUp.Add(n)
	}
}
