package obs

import (
	"log/slog"
	"time"
)

// ServerTrace is the gateway-side sibling of ClientTrace: hooks the storage
// server fires as its admission controller and deadline machinery act. Any
// field may be nil; a nil *ServerTrace costs the server two pointer checks
// per event. Hooks run inline on the request path and may be called
// concurrently — they must be fast and goroutine-safe.
type ServerTrace struct {
	// Admitted fires when a request passes admission; queued reports
	// whether it waited in the bounded queue (wait is the time spent
	// there, zero for a direct grant).
	Admitted func(client string, queued bool, wait time.Duration)

	// Shed fires when the admission controller rejects a request with
	// 503: reason is one of "capacity" (global in-flight + queue full or
	// queue deadline hit), "client-concurrency" (per-client cap), or
	// "client-rate" (token bucket empty). retryAfter is the advertised
	// backoff.
	Shed func(client, reason string, retryAfter time.Duration)

	// SlowClient fires when a body read or write stalls past the
	// configured deadline and the connection is killed: reason is
	// "read-stall" (slow-loris upload) or "write-stall" (client not
	// draining a download).
	SlowClient func(client, reason string)

	// PartialReaped fires when the TTL janitor drops an abandoned
	// ranged-upload assembly; age is how long it sat idle.
	PartialReaped func(path string, age time.Duration)
}

// EmitAdmitted invokes Admitted if installed.
func (t *ServerTrace) EmitAdmitted(client string, queued bool, wait time.Duration) {
	if t == nil || t.Admitted == nil {
		return
	}
	t.Admitted(client, queued, wait)
}

// EmitShed invokes Shed if installed.
func (t *ServerTrace) EmitShed(client, reason string, retryAfter time.Duration) {
	if t == nil || t.Shed == nil {
		return
	}
	t.Shed(client, reason, retryAfter)
}

// EmitSlowClient invokes SlowClient if installed.
func (t *ServerTrace) EmitSlowClient(client, reason string) {
	if t == nil || t.SlowClient == nil {
		return
	}
	t.SlowClient(client, reason)
}

// EmitPartialReaped invokes PartialReaped if installed.
func (t *ServerTrace) EmitPartialReaped(path string, age time.Duration) {
	if t == nil || t.PartialReaped == nil {
		return
	}
	t.PartialReaped(path, age)
}

// SlogServerTrace renders gateway events as structured log records on l:
// overload actions (shed, slow-client kill, reaped assembly) at Warn —
// they mean the server defended itself — and per-request admissions at
// Debug so an Info logger stays readable under load. Returns nil when l is
// nil ("no tracing").
func SlogServerTrace(l *slog.Logger) *ServerTrace {
	if l == nil {
		return nil
	}
	return &ServerTrace{
		Admitted: func(client string, queued bool, wait time.Duration) {
			l.Debug("gateway admitted", "client", client, "queued", queued, "wait", wait)
		},
		Shed: func(client, reason string, retryAfter time.Duration) {
			l.Warn("gateway shed", "client", client, "reason", reason,
				"retry_after", retryAfter)
		},
		SlowClient: func(client, reason string) {
			l.Warn("gateway slow client killed", "client", client, "reason", reason)
		},
		PartialReaped: func(path string, age time.Duration) {
			l.Warn("gateway partial upload reaped", "path", path, "age", age)
		},
	}
}
