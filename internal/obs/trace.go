// Package obs is the observability plane of the davix engine: an
// httptrace-style hook struct (ClientTrace) the engine fires at every
// interesting event, a log/slog adapter rendering those hooks as structured
// log events, and a zero-dependency exposition layer (expvar publication,
// Prometheus text format, pprof/vars debug endpoints, HTTP access logging)
// for the client and the storage-gateway server.
//
// The package deliberately depends on the standard library only, and the
// engine side is nil-safe end to end: with no trace installed every emit
// site is two pointer checks, so the disabled case stays off the hot path.
package obs

import "time"

// Direction labels which way a transfer chunk moves.
type Direction string

// Chunk directions.
const (
	// Down is a download chunk (server to client).
	Down Direction = "down"
	// Up is an upload chunk (client to server).
	Up Direction = "up"
)

// ClientTrace is a set of hooks the engine invokes as an operation
// progresses, in the style of net/http/httptrace.ClientTrace. Any field may
// be nil; a nil function (or a nil *ClientTrace) costs the engine nothing
// beyond the check. Hooks may be called concurrently from multiple
// goroutines (multi-stream transfers run chunks in parallel) and must be
// safe for concurrent use; they run inline on the hot path, so they should
// return quickly and never block.
type ClientTrace struct {
	// OpStart fires when an engine operation (one exec: GET, PUT(range),
	// PROPFIND, ...) begins, before any network traffic.
	OpStart func(op, host, path string)

	// OpDone fires when the operation finishes, with its caller-observed
	// duration (retries, redirects and failover included) and final error.
	OpDone func(op, host, path string, d time.Duration, err error)

	// Request fires for every HTTP request written to a connection:
	// redirect hops, retry attempts and failover attempts each count.
	Request func(method, host, path string)

	// ConnAcquired fires when a pooled connection is borrowed for a
	// request; reused reports a recycled keep-alive session (a pool hit)
	// versus a fresh dial.
	ConnAcquired func(host string, reused bool)

	// Redirect fires when the engine follows a 3xx hop away from fromHost.
	Redirect func(op, fromHost, location string)

	// Retry fires before a retry of op against host: transparent
	// stale-recycled-connection replays (attempt 1) and RetryPolicy backoff
	// retries, with the error that caused the retry.
	Retry func(op, host string, attempt int, err error)

	// Failover fires when the engine abandons fromHost and tries the next
	// Metalink replica on toHost; err is the failure being failed over
	// (nil when the primary was breaker-skipped up front).
	Failover func(fromHost, toHost string, err error)

	// BreakerTrip fires when the per-host health scoreboard demotes host
	// (consecutive-failure threshold reached, cooldown starts).
	BreakerTrip func(host string)

	// ChunkStart fires when one chunk of a multi-stream transfer (upload,
	// download, or pull-mode copy) is about to move [off, off+length) of
	// path.
	ChunkStart func(dir Direction, path string, idx int, off, length int64)

	// ChunkDone fires when that chunk finished (err nil) or failed. The
	// lengths of the successful ChunkDone events of one transfer sum to
	// exactly the object size.
	ChunkDone func(dir Direction, path string, idx int, off, length int64, err error)

	// HedgeIssued fires when a chunk read outlives its latency budget and
	// the engine launches a duplicate request for [off, off+length) of path
	// against standby host toHost, racing the straggler.
	HedgeIssued func(path string, idx int, off, length int64, toHost string)

	// HedgeSettled fires when a hedged chunk race resolves. hedgeWon
	// reports whether the standby beat the original request; wasted counts
	// payload bytes the losing side had already delivered when it was
	// cancelled (the duplicate-traffic cost of the hedge).
	HedgeSettled func(path string, idx int, hedgeWon bool, wasted int64)

	// PrefetchIssued fires when a speculative fetch (File.ReadVecAsyncCtx,
	// under rootio's pipelined window fills) goes on the wire for path:
	// spans is how many ranges the coalesced request carries, bytes their
	// total volume.
	PrefetchIssued func(path string, spans int, bytes int64)

	// PrefetchSettled fires when a speculative fetch completes, with the
	// bytes it had requested and its error (nil on success).
	PrefetchSettled func(path string, bytes int64, err error)

	// Resume fires once per transfer that picked up a checkpoint journal,
	// after the journaled chunks were re-verified against their recorded
	// digests: resumed counts bytes proven intact and skipped, verified the
	// journal records accepted, and failed the records whose digest no
	// longer matched (those chunks are re-fetched).
	Resume func(dir Direction, path string, resumed int64, verified, failed int)

	// UploadFellBackSerial fires when the destination refuses the ranged
	// PUT that probes a chunked upload of path (err is its verdict) and the
	// upload goes out as one whole-body PUT instead.
	UploadFellBackSerial func(path string, err error)

	// Verified fires when a transfer of path was verified end to end: its
	// whole-object digest under algo matched the server's.
	Verified func(dir Direction, path, algo string)
}

// The emit methods below are the engine-facing surface: all are safe on a
// nil receiver and skip nil hooks, so call sites never need a check.

// EmitOpStart invokes OpStart if installed.
func (t *ClientTrace) EmitOpStart(op, host, path string) {
	if t == nil || t.OpStart == nil {
		return
	}
	t.OpStart(op, host, path)
}

// EmitOpDone invokes OpDone if installed.
func (t *ClientTrace) EmitOpDone(op, host, path string, d time.Duration, err error) {
	if t == nil || t.OpDone == nil {
		return
	}
	t.OpDone(op, host, path, d, err)
}

// EmitRequest invokes Request if installed.
func (t *ClientTrace) EmitRequest(method, host, path string) {
	if t == nil || t.Request == nil {
		return
	}
	t.Request(method, host, path)
}

// EmitConnAcquired invokes ConnAcquired if installed.
func (t *ClientTrace) EmitConnAcquired(host string, reused bool) {
	if t == nil || t.ConnAcquired == nil {
		return
	}
	t.ConnAcquired(host, reused)
}

// EmitRedirect invokes Redirect if installed.
func (t *ClientTrace) EmitRedirect(op, fromHost, location string) {
	if t == nil || t.Redirect == nil {
		return
	}
	t.Redirect(op, fromHost, location)
}

// EmitRetry invokes Retry if installed.
func (t *ClientTrace) EmitRetry(op, host string, attempt int, err error) {
	if t == nil || t.Retry == nil {
		return
	}
	t.Retry(op, host, attempt, err)
}

// EmitFailover invokes Failover if installed.
func (t *ClientTrace) EmitFailover(fromHost, toHost string, err error) {
	if t == nil || t.Failover == nil {
		return
	}
	t.Failover(fromHost, toHost, err)
}

// EmitBreakerTrip invokes BreakerTrip if installed.
func (t *ClientTrace) EmitBreakerTrip(host string) {
	if t == nil || t.BreakerTrip == nil {
		return
	}
	t.BreakerTrip(host)
}

// EmitChunkStart invokes ChunkStart if installed.
func (t *ClientTrace) EmitChunkStart(dir Direction, path string, idx int, off, length int64) {
	if t == nil || t.ChunkStart == nil {
		return
	}
	t.ChunkStart(dir, path, idx, off, length)
}

// EmitChunkDone invokes ChunkDone if installed.
func (t *ClientTrace) EmitChunkDone(dir Direction, path string, idx int, off, length int64, err error) {
	if t == nil || t.ChunkDone == nil {
		return
	}
	t.ChunkDone(dir, path, idx, off, length, err)
}

// EmitHedgeIssued invokes HedgeIssued if installed.
func (t *ClientTrace) EmitHedgeIssued(path string, idx int, off, length int64, toHost string) {
	if t == nil || t.HedgeIssued == nil {
		return
	}
	t.HedgeIssued(path, idx, off, length, toHost)
}

// EmitHedgeSettled invokes HedgeSettled if installed.
func (t *ClientTrace) EmitHedgeSettled(path string, idx int, hedgeWon bool, wasted int64) {
	if t == nil || t.HedgeSettled == nil {
		return
	}
	t.HedgeSettled(path, idx, hedgeWon, wasted)
}

// EmitPrefetchIssued invokes PrefetchIssued if installed.
func (t *ClientTrace) EmitPrefetchIssued(path string, spans int, bytes int64) {
	if t == nil || t.PrefetchIssued == nil {
		return
	}
	t.PrefetchIssued(path, spans, bytes)
}

// EmitPrefetchSettled invokes PrefetchSettled if installed.
func (t *ClientTrace) EmitPrefetchSettled(path string, bytes int64, err error) {
	if t == nil || t.PrefetchSettled == nil {
		return
	}
	t.PrefetchSettled(path, bytes, err)
}

// EmitResume invokes Resume if installed.
func (t *ClientTrace) EmitResume(dir Direction, path string, resumed int64, verified, failed int) {
	if t == nil || t.Resume == nil {
		return
	}
	t.Resume(dir, path, resumed, verified, failed)
}

// EmitUploadFellBackSerial invokes UploadFellBackSerial if installed.
func (t *ClientTrace) EmitUploadFellBackSerial(path string, err error) {
	if t == nil || t.UploadFellBackSerial == nil {
		return
	}
	t.UploadFellBackSerial(path, err)
}

// EmitVerified invokes Verified if installed.
func (t *ClientTrace) EmitVerified(dir Direction, path, algo string) {
	if t == nil || t.Verified == nil {
		return
	}
	t.Verified(dir, path, algo)
}
