package obs

import (
	"log/slog"
	"time"
)

// SlogTrace renders every trace event as a structured log record on l:
// resilience events (retry, failover, breaker trip) at Warn — they mean
// something went wrong and the engine absorbed it — completed operations at
// Info, and the high-rate per-request, cache and chunk events at Debug so a
// default Info logger stays readable under a multi-stream transfer. Returns
// nil when l is nil, which the engine treats as "no tracing".
func SlogTrace(l *slog.Logger) *ClientTrace {
	if l == nil {
		return nil
	}
	return &ClientTrace{
		OpStart: func(op, host, path string) {
			l.Debug("davix op start", "op", op, "host", host, "path", path)
		},
		OpDone: func(op, host, path string, d time.Duration, err error) {
			if err != nil {
				l.Warn("davix op failed", "op", op, "host", host, "path", path,
					"duration", d, "err", err)
				return
			}
			l.Info("davix op", "op", op, "host", host, "path", path, "duration", d)
		},
		Request: func(method, host, path string) {
			l.Debug("davix request", "method", method, "host", host, "path", path)
		},
		ConnAcquired: func(host string, reused bool) {
			l.Debug("davix conn acquired", "host", host, "reused", reused)
		},
		Redirect: func(op, fromHost, location string) {
			l.Debug("davix redirect", "op", op, "from", fromHost, "location", location)
		},
		Retry: func(op, host string, attempt int, err error) {
			l.Warn("davix retry", "op", op, "host", host, "attempt", attempt, "err", err)
		},
		Failover: func(fromHost, toHost string, err error) {
			l.Warn("davix failover", "from", fromHost, "to", toHost, "err", err)
		},
		BreakerTrip: func(host string) {
			l.Warn("davix breaker trip", "host", host)
		},
		CacheHit: func(key string, blocks int64) {
			l.Debug("davix cache hit", "key", key, "blocks", blocks)
		},
		CacheMiss: func(key string, blocks int64) {
			l.Debug("davix cache miss", "key", key, "blocks", blocks)
		},
		ChunkStart: func(dir Direction, path string, idx int, off, length int64) {
			l.Debug("davix chunk start", "dir", string(dir), "path", path,
				"idx", idx, "off", off, "len", length)
		},
		ChunkDone: func(dir Direction, path string, idx int, off, length int64, err error) {
			if err != nil {
				l.Warn("davix chunk failed", "dir", string(dir), "path", path,
					"idx", idx, "off", off, "len", length, "err", err)
				return
			}
			l.Debug("davix chunk done", "dir", string(dir), "path", path,
				"idx", idx, "off", off, "len", length)
		},
		TransferPath: func(dir Direction, path string, bp BytePath, bytes int64) {
			l.Debug("davix byte path", "dir", string(dir), "path", path,
				"via", string(bp), "bytes", bytes)
		},
		HedgeIssued: func(path string, idx int, off, length int64, toHost string) {
			l.Warn("davix hedge issued", "path", path, "idx", idx,
				"off", off, "len", length, "to", toHost)
		},
		HedgeSettled: func(path string, idx int, hedgeWon bool, wasted int64) {
			l.Debug("davix hedge settled", "path", path, "idx", idx,
				"hedge_won", hedgeWon, "wasted", wasted)
		},
		PrefetchIssued: func(path string, spans int, bytes int64) {
			l.Debug("davix prefetch issued", "path", path, "spans", spans, "bytes", bytes)
		},
		PrefetchSettled: func(path string, bytes int64, err error) {
			if err != nil {
				l.Warn("davix prefetch failed", "path", path, "bytes", bytes, "err", err)
				return
			}
			l.Debug("davix prefetch settled", "path", path, "bytes", bytes)
		},
		Resume: func(dir Direction, path string, resumed int64, verified, failed int) {
			l.Info("davix resume", "dir", string(dir), "path", path,
				"resumed_bytes", resumed, "verified_chunks", verified,
				"failed_chunks", failed)
		},
		UploadFellBackSerial: func(path string, err error) {
			l.Warn("davix upload fell back to serial", "path", path, "err", err)
		},
		Verified: func(dir Direction, path, algo string) {
			l.Debug("davix transfer verified", "dir", string(dir), "path", path, "algo", algo)
		},
	}
}
