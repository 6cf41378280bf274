// The request-execution engine: every operation the client performs — reads,
// vectored reads, namespace ops, puts, streaming and chunked uploads, copies —
// runs through exec() down to its one pooled round trip, doOnce. exec
// composes the resilience layers the paper describes as one coherent I/O
// stack (§2.2 pooled sessions with stale-connection recycling, DPM-style
// redirect following, bounded retry with backoff, §2.4 Metalink replica
// failover) over a per-host health scoreboard and the client-wide metrics
// collector.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"godavix/internal/metalink"
	"godavix/internal/obs"
	"godavix/internal/wire"
)

// reqSpec declares one operation's execution contract: how the engine may
// treat its requests. Operations declare a spec once; exec composes the
// layers the spec is eligible for.
type reqSpec struct {
	// op labels the operation in Metrics.Ops and latency quantiles.
	op string
	// method is the HTTP method, for error reporting.
	method string
	// idempotent marks the operation safe to retry: eligible for
	// RetryPolicy backoff retries after retryable failures. The builder is
	// re-invoked per attempt, so bodies must be replayable (rebuilt from
	// stable bytes or a seekable source) — which is also what lets the
	// stale-recycled-connection replay cover bodied requests.
	idempotent bool
	// follow makes the engine follow 3xx redirects (DPM head node -> disk
	// node), with loop detection and cross-host credential hygiene.
	follow bool
	// failover makes the engine retry the whole operation on the next
	// Metalink replica when a replica is unavailable.
	failover bool
	// expect sends the request with Expect: 100-continue and holds the body
	// back until the server answers or expectContinueWait passes, so a
	// one-shot body survives a redirect or refusal before it: the builder
	// hands every hop the same, still unread source. Once the body has been
	// read the request is never sent again.
	expect bool
}

// The specs of every engine operation.
var (
	specGet      = reqSpec{op: "GET", method: "GET", idempotent: true, follow: true, failover: true}
	specRange    = reqSpec{op: "GET(range)", method: "GET", idempotent: true, follow: true, failover: true}
	specChunk    = reqSpec{op: "GET(chunk)", method: "GET", idempotent: true, follow: true}
	specVector   = reqSpec{op: "GET(vector)", method: "GET", idempotent: true, follow: true}
	specMetalink = reqSpec{op: "GET(metalink)", method: "GET", idempotent: true}
	// Open fails over as a whole (it may fall back to a Stat of the same
	// replica), so its GET does not.
	specOpen     = reqSpec{op: "GET(open)", method: "GET", idempotent: true, follow: true}
	specHead     = reqSpec{op: "HEAD", method: "HEAD", idempotent: true, follow: true}
	specPropfind = reqSpec{op: "PROPFIND", method: "PROPFIND", idempotent: true}
	specPut      = reqSpec{op: "PUT", method: "PUT", idempotent: true, follow: true}
	specPutRange = reqSpec{op: "PUT(range)", method: "PUT", idempotent: true, follow: true}
	// A streaming PUT's body is read once, so it is neither retried nor
	// failed over.
	specPutStream = reqSpec{op: "PUT(stream)", method: "PUT", follow: true, expect: true}
	specDelete    = reqSpec{op: "DELETE", method: "DELETE", idempotent: true}
	// MKCOL is not idempotent (RFC 4918: a second MKCOL answers 405), so a
	// retry after a lost response would misreport a created collection as
	// failed — the engine must surface the first error instead.
	specMkcol = reqSpec{op: "MKCOL", method: "MKCOL"}
	specCopy  = reqSpec{op: "COPY", method: "COPY", idempotent: true}
)

// RetryPolicy bounds the engine's retry-with-backoff layer: how many times
// an idempotent operation is attempted against one replica before the error
// surfaces (or replica failover takes over). The zero value is normalized
// to Attempts=1 — no retries, the seed semantics.
type RetryPolicy struct {
	// Attempts caps tries against one replica per operation (1 = no
	// retry; 0 is normalized to 1).
	Attempts int
	// BaseBackoff is slept before the first retry and doubles each
	// further retry (default 50ms when Attempts > 1).
	BaseBackoff time.Duration
	// CapBackoff bounds the exponential growth (default 2s).
	CapBackoff time.Duration
	// Jitter maps each computed backoff to the duration actually slept.
	// Nil applies half-jitter (uniform in [d/2, d]); tests inject a
	// deterministic function.
	Jitter func(time.Duration) time.Duration
}

// backoff computes the (jittered) sleep before retry number n (1-based).
func (p RetryPolicy) backoff(n int) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < n; i++ {
		d *= 2
		if d >= p.CapBackoff {
			break
		}
	}
	if d > p.CapBackoff {
		d = p.CapBackoff
	}
	if p.Jitter != nil {
		return p.Jitter(d)
	}
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)/2+1))
}

// retryDelay is the sleep before retry number n: the policy's jittered
// exponential backoff, stretched to any Retry-After the server advertised
// with the failure (a shedding gateway's 503 names when to come back).
// The server's ask is honoured up to CapBackoff so a hostile or confused
// header cannot park the client for minutes.
func retryDelay(p RetryPolicy, n int, err error) time.Duration {
	d := p.backoff(n)
	var se *StatusError
	if errors.As(err, &se) && se.RetryAfter > 0 {
		ask := se.RetryAfter
		if ask > p.CapBackoff {
			ask = p.CapBackoff
		}
		if ask > d {
			d = ask
		}
	}
	return d
}

// exec runs one operation through the full layer stack. build produces the
// request for a given target (invoked once per hop and per attempt, so
// bodies are always fresh); handle consumes — and must close — the
// response, receiving the replica the request finally landed on after
// redirects. Operation latency (retries and failover included) is recorded
// under spec.op.
func (c *Client) exec(ctx context.Context, host, path string, spec reqSpec,
	build func(host, path string) *wire.Request,
	handle func(landed Replica, resp *Response) error) (err error) {

	start := time.Now()
	c.opts.Trace.EmitOpStart(spec.op, host, path)
	defer func() {
		d := time.Since(start)
		c.metrics.observe(spec.op, d)
		c.opts.Trace.EmitOpDone(spec.op, host, path, d, err)
	}()
	if spec.failover && c.opts.Strategy != StrategyNone {
		return c.withFailover(ctx, host, path, func(r Replica) error {
			return c.execAttempts(ctx, r, spec, build, handle)
		})
	}
	return c.execAttempts(ctx, Replica{Host: host, Path: path}, spec, build, handle)
}

// execAttempts is the retry-budget layer: the redirect-following execution
// is retried with exponential backoff while the RetryPolicy budget lasts
// and the failure looks transient. Only idempotent specs retry; the default
// Attempts=1 policy makes this layer free.
func (c *Client) execAttempts(ctx context.Context, rep Replica, spec reqSpec,
	build func(host, path string) *wire.Request,
	handle func(landed Replica, resp *Response) error) error {

	attempts := c.opts.Retry.Attempts
	if !spec.idempotent {
		attempts = 1
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		err := c.execHops(ctx, rep, spec, build, handle)
		if err == nil {
			return nil
		}
		lastErr = err
		if attempt >= attempts || !retryableErr(err) || ctx.Err() != nil {
			return lastErr
		}
		c.metrics.retries.Add(1)
		c.opts.Trace.EmitRetry(spec.op, rep.Host, attempt, err)
		if err := sleepCtx(ctx, retryDelay(c.opts.Retry, attempt, err)); err != nil {
			return lastErr
		}
	}
}

// retryableErr reports whether err is worth a same-replica retry: the
// replica-unavailability class (transport errors, retryable 5xx), minus
// failures that are deterministic however often they are replayed.
func retryableErr(err error) bool {
	if errors.Is(err, ErrRedirectLoop) || errors.Is(err, ErrTooManyRedirects) {
		return false
	}
	return replicaUnavailable(err)
}

// sleepCtx sleeps d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// maxRedirects bounds how many 3xx redirects a request follows.
// DPM-style storage systems redirect data operations from the head node to
// disk nodes.
const maxRedirects = 5

// hopKey identifies one redirect target for loop detection.
type hopKey struct{ host, path string }

// execHops is the redirect layer: it executes the request against rep,
// following 3xx hops (when the spec allows) up to maxRedirects,
// failing fast on revisited (host, path) targets, and feeding the per-host
// health scoreboard with every hop's outcome. DPM-style storage answers data
// operations on the head node with a redirect to the disk node holding the
// data; the engine follows transparently, keeping pooled sessions to both
// nodes warm. Bearer/Basic credentials never cross to a host other than
// the one the chain started at (S3 requests are instead re-signed for each
// hop's host by prepare).
func (c *Client) execHops(ctx context.Context, rep Replica, spec reqSpec,
	build func(host, path string) *wire.Request,
	handle func(landed Replica, resp *Response) error) error {

	host, path := rep.Host, rep.Path
	hops := 0
	var seen map[hopKey]bool // allocated on the first redirect
	for {
		resp, err := c.doHop(ctx, spec, rep.Host, host, path, build)
		if err != nil {
			c.recordHealth(host, err)
			return err
		}
		if !spec.follow || !isRedirect(resp.StatusCode) || resp.spent {
			if retryableStatus(resp.StatusCode) {
				// The handler will surface this as a StatusError; charge
				// the host now so handlers that swallow it (HEAD→PROPFIND
				// fallback) still leave the failure on the scoreboard.
				c.health.fail(host, &c.metrics)
				return handle(Replica{Host: host, Path: path}, resp)
			}
			// Health is judged only after the handler has consumed the
			// body: a host that sends clean headers and then cuts every
			// transfer mid-body must still accumulate failures (and a
			// half-open probe must not be readmitted on headers alone).
			herr := handle(Replica{Host: host, Path: path}, resp)
			c.recordHealth(host, herr)
			return herr
		}
		// The hop answered as designed — it is healthy even though it
		// bounced us elsewhere.
		c.health.ok(host)
		c.metrics.redirects.Add(1)
		code := resp.StatusCode
		loc := resp.Header.Get("Location")
		c.opts.Trace.EmitRedirect(spec.op, host, loc)
		// The request is about to be re-sent in full to the next target;
		// charging this hop's exchange too would double-count its bytes.
		resp.dropWire = true
		resp.Discard()
		resp.Close()
		if loc == "" {
			return fmt.Errorf("davix: redirect %d without Location from %s", code, host)
		}
		h, p, err := metalink.SplitURL(loc)
		if err != nil {
			return fmt.Errorf("davix: bad redirect Location %q: %w", loc, err)
		}
		if seen == nil {
			seen = map[hopKey]bool{{host, path}: true}
		}
		if seen[hopKey{h, p}] {
			return fmt.Errorf("%w: %s%s revisits %s%s", ErrRedirectLoop, host, path, h, p)
		}
		seen[hopKey{h, p}] = true
		if hops++; hops > maxRedirects {
			return fmt.Errorf("%w (> %d hops)", ErrTooManyRedirects, maxRedirects)
		}
		host, path = h, p
	}
}

// doHop performs one hop's round trip on a pooled connection, replaying
// once on a stale recycled connection: the server may close a keep-alive
// session between requests, and only a reused connection justifies the
// transparent retry. The request is rebuilt per attempt, so bodied
// (replayable) requests get the same robustness as bodyless ones; an
// expect spec's one-shot body is replayed only if the failure came before
// any of it was read. The spec's method is stamped authoritatively (the
// builder cannot drift from the declared contract); originHost scopes
// Bearer/Basic credentials to the chain's first host.
func (c *Client) doHop(ctx context.Context, spec reqSpec, originHost, host, path string,
	build func(host, path string) *wire.Request) (*Response, error) {

	var lastErr error
	for attempt := 0; ; attempt++ {
		req := build(host, path)
		req.Method = spec.method
		resp, replayable, err := c.doOnce(ctx, host, spec, req, originHost)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if attempt > 0 || !replayable || ctx.Err() != nil {
			return nil, lastErr
		}
		// The replay is about to happen; count it only now.
		c.metrics.retries.Add(1)
		c.opts.Trace.EmitRetry(spec.op, host, 1, err)
	}
}

// --- Metalink replica failover (paper §2.4) ---

// Replica identifies one location of a resource.
type Replica struct {
	// Host is the server address ("dpm2:80").
	Host string
	// Path is the resource path on that server.
	Path string
}

// replicaUnavailable classifies err as "this replica is unavailable, try
// another" (paper §2.4: offline server, connection refused/reset, 5xx)
// versus a semantic failure every replica would reproduce (404, 403, bad
// request).
func replicaUnavailable(err error) bool {
	if err == nil {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return retryableStatus(se.Code)
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	// Everything else (aborted connections, unexpected EOF, malformed
	// responses from a dying server) counts as replica unavailability —
	// except caller cancellation, which must propagate untouched.
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// replicasFor resolves the replica list for host/path: the primary first,
// then the Metalink replicas in priority order (duplicates excluded).
// Metalink resolution failures degrade to primary-only.
func (c *Client) replicasFor(ctx context.Context, host, path string) []Replica {
	reps := []Replica{{Host: host, Path: path}}
	if c.opts.Strategy == StrategyNone {
		return reps
	}
	ml, err := c.GetMetalink(ctx, host, path)
	if err != nil {
		return reps
	}
	return metalinkReplicas(reps, ml)
}

// withFailover runs op against the primary replica and, if it reports
// unavailability, transparently retries against each Metalink replica in
// priority order — the paper's default "fail-over" strategy, which costs
// nothing while the primary is healthy. A primary whose health breaker is
// open is skipped up front (the Metalink replicas are consulted first and
// the primary demoted to last resort), so a known-dead node stops taxing
// every operation with its timeout.
func (c *Client) withFailover(ctx context.Context, host, path string, op func(Replica) error) error {
	primary := Replica{Host: host, Path: path}
	skipPrimary := c.opts.Strategy != StrategyNone && !c.health.acquire(host)
	var firstErr error
	if !skipPrimary {
		err := op(primary)
		// op may have been answered from a cache without any network I/O
		// (a Stat hitting the TTL stat cache): a half-open probe token
		// claimed by acquire must never stay latched, or the host could
		// never be probed again. Idempotent when the op did report.
		c.health.release(host)
		if err == nil || c.opts.Strategy == StrategyNone || !replicaUnavailable(err) {
			return err
		}
		firstErr = err
	}

	ml, mlErr := c.GetMetalink(ctx, host, path)
	if mlErr != nil {
		if firstErr == nil {
			// The breaker skipped the primary but no replica information
			// exists: the primary is still the only candidate.
			return op(primary)
		}
		if err := ctx.Err(); err != nil {
			// The cancel cut the Metalink lookup short: report it, not
			// the primary's failure alone.
			return errors.Join(err, firstErr)
		}
		return firstErr
	}
	tried := map[Replica]bool{primary: true}
	var ring []Replica
	for _, u := range ml.URLs {
		h, p, err := metalink.SplitURL(u.Loc)
		if err != nil {
			continue
		}
		rep := Replica{Host: h, Path: p}
		if tried[rep] {
			continue
		}
		tried[rep] = true
		ring = append(ring, rep)
	}
	if skipPrimary {
		// Last resort: the breaker's opinion must never make an operation
		// impossible.
		ring = append(ring, primary)
	}
	for _, rep := range c.health.order(ring) {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		c.metrics.failovers.Add(1)
		c.opts.Trace.EmitFailover(host, rep.Host, firstErr)
		err := op(rep)
		if err == nil || !replicaUnavailable(err) {
			return err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return errors.Join(ErrAllReplicasFailed, firstErr)
}

// recordHealth feeds one request outcome to the scoreboard: success and
// semantic failures (the host answered) count as healthy, transport-level
// failures and retryable 5xx count against the host, and caller
// cancellation carries no signal at all.
func (c *Client) recordHealth(host string, err error) {
	switch {
	case err == nil:
		c.health.ok(host)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		c.health.release(host)
	case replicaUnavailable(err):
		c.health.fail(host, &c.metrics)
	default:
		c.health.ok(host)
	}
}

// --- per-host health scoreboard ---

// hostState values for hostHealth.state.
const (
	hostClosed int32 = iota // healthy: requests flow normally
	hostOpen                // demoted: skipped while alternatives exist
)

// hostHealth is one host's breaker: consecutive-failure count, open/closed
// state, and the half-open probe gate. All fields are atomics — the healthy
// path costs two uncontended loads.
type hostHealth struct {
	fails    atomic.Int32
	state    atomic.Int32
	openedAt atomic.Int64 // UnixNano of the last demotion/failed probe
	probing  atomic.Bool  // one in-flight half-open probe at a time
}

// healthBoard tracks per-host availability across the whole client:
// threshold consecutive failures demote a host (breaker opens,
// BreakerTrips increments); after probeAfter one probe request is let
// through (half-open) — its success restores the host, its failure re-arms
// the cooldown. Replica rings are ordered healthy-first so one dead disk
// node stops costing every chunk a timeout.
type healthBoard struct {
	threshold  int
	probeAfter time.Duration
	// trace receives BreakerTrip events (nil-safe; set by NewClient).
	trace *obs.ClientTrace

	mu    sync.RWMutex
	hosts map[string]*hostHealth
	// open counts currently-demoted hosts, letting order() skip all work
	// (including its allocation) while every host is healthy.
	open atomic.Int32
}

// newHealthBoard builds a board that demotes a host after 3 consecutive
// failures and probes it again after 2 s.
func newHealthBoard() *healthBoard {
	return &healthBoard{threshold: 3, probeAfter: 2 * time.Second, hosts: map[string]*hostHealth{}}
}

// get returns host's entry, creating it on first sight.
func (b *healthBoard) get(host string) *hostHealth {
	b.mu.RLock()
	h := b.hosts[host]
	b.mu.RUnlock()
	if h != nil {
		return h
	}
	b.mu.Lock()
	if h = b.hosts[host]; h == nil {
		h = &hostHealth{}
		b.hosts[host] = h
	}
	b.mu.Unlock()
	return h
}

// ok records a successful (or semantically-answered) request to host.
func (b *healthBoard) ok(host string) {
	h := b.get(host)
	h.fails.Store(0)
	h.probing.Store(false)
	if h.state.Swap(hostClosed) == hostOpen {
		b.open.Add(-1)
	}
}

// fail records a host-level failure, demoting the host once the
// consecutive-failure threshold is reached.
func (b *healthBoard) fail(host string, m *metrics) {
	h := b.get(host)
	now := time.Now().UnixNano()
	if h.state.Load() == hostOpen {
		// A failed half-open probe (or a last-resort attempt): re-arm the
		// cooldown window.
		h.openedAt.Store(now)
		h.probing.Store(false)
		return
	}
	if int(h.fails.Add(1)) >= b.threshold && h.state.CompareAndSwap(hostClosed, hostOpen) {
		h.openedAt.Store(now)
		h.probing.Store(false)
		b.open.Add(1)
		m.breakerTrips.Add(1)
		b.trace.EmitBreakerTrip(host)
	}
}

// release clears the probe gate without recording an outcome (caller
// cancellation: no evidence either way).
func (b *healthBoard) release(host string) {
	b.get(host).probing.Store(false)
}

// healthy reports whether host's breaker is closed (ordering decisions).
func (b *healthBoard) healthy(host string) bool {
	return b.get(host).state.Load() == hostClosed
}

// acquire reports whether a request to host should proceed: always for a
// healthy host; for a demoted one only once per cooldown window, as the
// half-open probe. Callers that acquire must issue the request, so the
// outcome (ok/fail/release) re-opens the gate.
func (b *healthBoard) acquire(host string) bool {
	h := b.get(host)
	if h.state.Load() == hostClosed {
		return true
	}
	if time.Now().UnixNano()-h.openedAt.Load() < int64(b.probeAfter) {
		return false
	}
	return h.probing.CompareAndSwap(false, true)
}

// order returns reps with demoted hosts moved after healthy ones (stable
// within each class). While every host is healthy it returns reps
// unchanged, without allocating. Health is sampled once per host up front:
// a breaker flipping mid-sort must not hand the comparator inconsistent
// answers (and the board lookup is paid O(hosts), not O(n log n)).
func (b *healthBoard) order(reps []Replica) []Replica {
	if b.open.Load() == 0 || len(reps) < 2 {
		return reps
	}
	healthy := make(map[string]bool, len(reps))
	for _, r := range reps {
		if _, ok := healthy[r.Host]; !ok {
			healthy[r.Host] = b.healthy(r.Host)
		}
	}
	out := make([]Replica, len(reps))
	copy(out, reps)
	sort.SliceStable(out, func(i, j int) bool {
		return healthy[out[i].Host] && !healthy[out[j].Host]
	})
	return out
}

// isRedirect reports whether code is a followable 3xx.
func isRedirect(code int) bool {
	switch code {
	case 301, 302, 303, 307, 308:
		return true
	}
	return false
}
