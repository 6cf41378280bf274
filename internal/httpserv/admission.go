package httpserv

import (
	"context"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"godavix/internal/obs"
)

// Limits configures the gateway's overload defences. The zero value
// disables every limit, preserving the unbounded test-fixture behaviour;
// any admission field > 0 arms the admission controller.
type Limits struct {
	// MaxInFlight bounds requests executing concurrently across all
	// clients (the weighted-semaphore width). 0 = unlimited.
	MaxInFlight int
	// QueueDepth bounds how many admitted-but-waiting requests may queue
	// for an in-flight slot before new arrivals are shed. Defaults to
	// MaxInFlight when that is set.
	QueueDepth int
	// QueueWait is the longest a request may sit in the queue before it
	// is shed with 503 (the queue deadline). Default 100ms.
	QueueWait time.Duration
	// PerClientConcurrency caps one client's simultaneous in-flight
	// requests (client = bearer token, else remote host). 0 = unlimited.
	PerClientConcurrency int
	// PerClientRate refills each client's token bucket at this many
	// requests per second. 0 = unlimited.
	PerClientRate float64
	// PerClientBurst is the bucket capacity; defaults to
	// max(1, PerClientRate).
	PerClientBurst int

	// RequestBudget is the whole-request wall-clock budget: the request
	// context is cancelled and the connection's write deadline armed so a
	// response cannot dribble out forever. 0 = no budget.
	RequestBudget time.Duration
	// BodyStallTimeout is the stall deadline on reads from a client: the
	// request headers must arrive within it, and it is re-armed before
	// every request-body read, so a client that stops sending (slow loris)
	// is cut off after this long, not held forever. Idle keep-alive
	// connections are not timed. 0 = no stall detection.
	BodyStallTimeout time.Duration

	// PartialTTL overrides how long an idle ranged-upload assembly
	// survives before the janitor reaps it. Defaults to one minute.
	PartialTTL time.Duration
	// RetryAfterFloor is the minimum Retry-After advertised on a shed;
	// the actual value scales with queue pressure and is jittered so a
	// shed cohort does not return in lockstep. Default 1s.
	RetryAfterFloor time.Duration
}

// admissionEnabled reports whether any admission limit is armed.
func (l Limits) admissionEnabled() bool {
	return l.MaxInFlight > 0 || l.PerClientConcurrency > 0 || l.PerClientRate > 0
}

// Shed reasons, also the label in shed_<reason>_total counters.
const (
	shedCapacity    = "capacity"
	shedConcurrency = "client_concurrency"
	shedRate        = "client_rate"
)

// clientState is one client's fairness bookkeeping: live request count and
// token bucket.
type clientState struct {
	inflight int
	tokens   float64
	last     time.Time // last bucket refill
	lastSeen time.Time // drives pruning of idle clients
}

// admission is the weighted-semaphore admission controller: a slot channel
// bounds global in-flight work, a counter bounds the wait queue, and a
// per-client table enforces fairness before a request may even compete for
// a slot.
type admission struct {
	lim   Limits
	trace *obs.ServerTrace

	slots chan struct{} // nil when MaxInFlight == 0

	inflight       atomic.Int64
	queued         atomic.Int64
	admittedTotal  atomic.Int64
	admittedQueued atomic.Int64
	shedByReason   [3]atomic.Int64 // capacity, concurrency, rate

	mu      sync.Mutex
	clients map[string]*clientState

	rng atomic.Uint64 // xorshift state for Retry-After jitter
}

func newAdmission(lim Limits, trace *obs.ServerTrace) *admission {
	if lim.QueueDepth <= 0 {
		lim.QueueDepth = lim.MaxInFlight
	}
	if lim.QueueWait <= 0 {
		lim.QueueWait = 100 * time.Millisecond
	}
	if lim.RetryAfterFloor <= 0 {
		lim.RetryAfterFloor = time.Second
	}
	if lim.PerClientRate > 0 && lim.PerClientBurst <= 0 {
		lim.PerClientBurst = int(math.Max(1, lim.PerClientRate))
	}
	a := &admission{
		lim:     lim,
		trace:   trace,
		clients: make(map[string]*clientState),
	}
	if lim.MaxInFlight > 0 {
		a.slots = make(chan struct{}, lim.MaxInFlight)
	}
	a.rng.Store(uint64(time.Now().UnixNano()) | 1)
	return a
}

// clientKey identifies the fairness principal of a request: the bearer
// token when one is presented (so a NATed site shares fate by credential,
// not address), else the remote host.
func clientKey(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); auth != "" {
		if tok, ok := strings.CutPrefix(auth, "Bearer "); ok {
			return "token:" + strings.TrimSpace(tok)
		}
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr // netsim addrs carry no port
	}
	return host
}

// admit runs the full admission decision for client. On success it returns
// a release func and ok=true; on shed it returns the reason and the
// Retry-After to advertise.
func (a *admission) admit(ctx context.Context, client string) (release func(), reason string, retryAfter time.Duration, ok bool) {
	// Per-client fairness gate first: a hog is turned away before it can
	// occupy queue space others need.
	perClient := a.lim.PerClientConcurrency > 0 || a.lim.PerClientRate > 0
	if perClient {
		if reason, ok := a.admitClient(client); !ok {
			ra := a.retryAfter()
			a.shedFor(reason).Add(1)
			a.trace.EmitShed(client, reason, ra)
			return nil, reason, ra, false
		}
	}
	releaseClient := func() {
		if perClient {
			a.releaseClient(client)
		}
	}

	if a.slots == nil { // no global bound
		a.inflight.Add(1)
		a.admittedTotal.Add(1)
		a.trace.EmitAdmitted(client, false, 0)
		return func() { a.inflight.Add(-1); releaseClient() }, "", 0, true
	}

	grant := func(queued bool, wait time.Duration) func() {
		a.inflight.Add(1)
		a.admittedTotal.Add(1)
		if queued {
			a.admittedQueued.Add(1)
		}
		a.trace.EmitAdmitted(client, queued, wait)
		return func() {
			a.inflight.Add(-1)
			<-a.slots
			releaseClient()
		}
	}

	select {
	case a.slots <- struct{}{}:
		return grant(false, 0), "", 0, true
	default:
	}

	// No free slot: compete for a bounded queue position.
	if a.queued.Add(1) > int64(a.lim.QueueDepth) {
		a.queued.Add(-1)
		releaseClient()
		ra := a.retryAfter()
		a.shedFor(shedCapacity).Add(1)
		a.trace.EmitShed(client, shedCapacity, ra)
		return nil, shedCapacity, ra, false
	}
	start := time.Now()
	timer := time.NewTimer(a.lim.QueueWait)
	defer timer.Stop()
	select {
	case a.slots <- struct{}{}:
		a.queued.Add(-1)
		return grant(true, time.Since(start)), "", 0, true
	case <-timer.C:
	case <-ctx.Done():
	}
	// Queue deadline passed or the client abandoned the request.
	a.queued.Add(-1)
	releaseClient()
	ra := a.retryAfter()
	a.shedFor(shedCapacity).Add(1)
	a.trace.EmitShed(client, shedCapacity, ra)
	return nil, shedCapacity, ra, false
}

// admitClient applies the per-client concurrency cap and token bucket.
func (a *admission) admitClient(client string) (reason string, ok bool) {
	now := time.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	cs := a.clients[client]
	if cs == nil {
		if len(a.clients) >= 16384 {
			a.pruneClientsLocked(now)
		}
		cs = &clientState{tokens: float64(a.lim.PerClientBurst), last: now}
		a.clients[client] = cs
	}
	cs.lastSeen = now
	if a.lim.PerClientConcurrency > 0 && cs.inflight >= a.lim.PerClientConcurrency {
		return shedConcurrency, false
	}
	if a.lim.PerClientRate > 0 {
		cs.tokens = math.Min(float64(a.lim.PerClientBurst),
			cs.tokens+now.Sub(cs.last).Seconds()*a.lim.PerClientRate)
		cs.last = now
		if cs.tokens < 1 {
			return shedRate, false
		}
		cs.tokens--
	}
	cs.inflight++
	return "", true
}

func (a *admission) releaseClient(client string) {
	a.mu.Lock()
	if cs := a.clients[client]; cs != nil {
		cs.inflight--
	}
	a.mu.Unlock()
}

// pruneClientsLocked evicts idle clients so the fairness table cannot grow
// without bound under address churn. Caller holds a.mu.
func (a *admission) pruneClientsLocked(now time.Time) {
	cutoff := now.Add(-time.Minute)
	for k, cs := range a.clients {
		if cs.inflight == 0 && cs.lastSeen.Before(cutoff) {
			delete(a.clients, k)
		}
	}
}

func (a *admission) shedFor(reason string) *atomic.Int64 {
	switch reason {
	case shedConcurrency:
		return &a.shedByReason[1]
	case shedRate:
		return &a.shedByReason[2]
	default:
		return &a.shedByReason[0]
	}
}

func (a *admission) shedTotal() int64 {
	return a.shedByReason[0].Load() + a.shedByReason[1].Load() + a.shedByReason[2].Load()
}

// retryAfter derives the backoff advertised on a shed: the configured
// floor, scaled up with queue pressure (a fuller queue pushes clients
// further away) and jittered ±25% so a shed cohort does not come back as a
// synchronized thundering herd.
func (a *admission) retryAfter() time.Duration {
	load := 1.0
	if a.lim.QueueDepth > 0 {
		load += float64(a.queued.Load()) / float64(a.lim.QueueDepth)
	}
	d := float64(a.lim.RetryAfterFloor) * load
	// xorshift64* step for the jitter; quality is irrelevant, decorrelation
	// across sheds is the point.
	for {
		old := a.rng.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if a.rng.CompareAndSwap(old, x) {
			frac := float64(x%1000) / 1000 // [0,1)
			d *= 0.75 + 0.5*frac
			break
		}
	}
	return time.Duration(d)
}

// retryAfterHeader renders d as the Retry-After header value: integer
// seconds, rounded up, never below 1 (the header has no sub-second form).
func retryAfterHeader(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// stallReader guards a request body against slow-loris senders: before
// every Read it arms the connection's read deadline, so a client that goes
// quiet mid-body is cut off after stall rather than pinning a slot
// forever. On clean EOF the deadline is disarmed so keep-alive reuse is
// unaffected.
type stallReader struct {
	body   io.ReadCloser
	ctrl   *http.ResponseController
	stall  time.Duration
	budget time.Time // absolute whole-request deadline; zero = none
	srv    *Server
	client string
	killed bool
}

func (sr *stallReader) Read(p []byte) (int, error) {
	dl := time.Now().Add(sr.stall)
	if !sr.budget.IsZero() && sr.budget.Before(dl) {
		dl = sr.budget
	}
	// Unsupported conns (no deadline support) degrade to unprotected reads.
	_ = sr.ctrl.SetReadDeadline(dl)
	n, err := sr.body.Read(p)
	if err != nil {
		if errIsTimeout(err) && !sr.killed {
			sr.killed = true
			sr.srv.stallKills.Add(1)
			sr.srv.opts.Trace.EmitSlowClient(sr.client, "read-stall")
		} else {
			_ = sr.ctrl.SetReadDeadline(time.Time{})
		}
	}
	return n, err
}

func (sr *stallReader) Close() error { return sr.body.Close() }

func errIsTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
