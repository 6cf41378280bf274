package core

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// StatusError reports a non-success HTTP status from the server.
type StatusError struct {
	// Code is the HTTP status code.
	Code int
	// Status is the status line reason.
	Status string
	// Method and Path identify the failed request.
	Method, Path string
	// RetryAfter is the server-advertised backoff from a Retry-After
	// header (503 shedding, 429), zero when none was sent. The retry
	// engine stretches its computed backoff to honour it, capped at
	// RetryPolicy.CapBackoff.
	RetryAfter time.Duration
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("davix: %s %s: %s", e.Method, e.Path, e.Status)
}

// ErrNotFound is wrapped by 404 StatusErrors so callers can errors.Is it.
var ErrNotFound = errors.New("davix: not found")

// Is maps 404 onto ErrNotFound.
func (e *StatusError) Is(target error) bool {
	return target == ErrNotFound && e.Code == 404
}

// parseRetryAfter parses a Retry-After header value: either delta-seconds
// ("120") or an HTTP-date (RFC 9110 §10.2.3), measured against now.
// Malformed values and dates in the past report zero; a delay too long for
// a Duration reports the longest one (retryDelay caps it anyway).
func parseRetryAfter(v string, now time.Time) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if secs, err := strconv.ParseInt(v, 10, 64); err == nil || errors.Is(err, strconv.ErrRange) {
		switch {
		case secs < 0:
			return 0
		case secs > math.MaxInt64/int64(time.Second):
			return math.MaxInt64
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := at.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// retryableStatus reports whether a status code indicates the replica is
// unavailable (worth a Metalink failover) rather than a semantic failure
// like 404 or 403 that every replica would repeat.
func retryableStatus(code int) bool {
	switch code {
	case 500, 502, 503, 504:
		return true
	}
	return false
}

// ErrAllReplicasFailed is returned when the failover engine exhausts every
// replica listed in the Metalink.
var ErrAllReplicasFailed = errors.New("davix: all replicas failed")

// ErrTooManyRedirects is returned when a redirect chain exceeds 5 hops.
var ErrTooManyRedirects = errors.New("davix: too many redirects")

// ErrRedirectLoop is returned when a redirect chain revisits a target it
// already passed through (A→B→A): the cycle would burn the whole
// redirect budget without ever terminating, so the engine fails fast.
var ErrRedirectLoop = errors.New("davix: redirect loop")

// ErrFileClosed is returned by File operations after Close, and by a
// second Close.
var ErrFileClosed = errors.New("davix: file already closed")

// ErrVectorUnsupported is returned when the server answers a multi-range
// request in a form the client cannot use (should not happen with
// standards-compliant servers; kept for diagnostics).
var ErrVectorUnsupported = errors.New("davix: server cannot satisfy vectored read")
