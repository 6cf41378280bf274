// Package core implements the davix engine: HTTP request execution over the
// dynamic connection pool (paper §2.2), vectored multi-range reads
// (paper §2.3), Metalink-driven replica failover and multi-stream downloads
// (paper §2.4), and the POSIX-like remote file API the ROOT integration
// (TDavixFile) exposes.
package core

import (
	"context"
	"crypto/tls"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"godavix/internal/metalink"
	"godavix/internal/obs"
	"godavix/internal/pool"
	"godavix/internal/s3"
	"godavix/internal/wire"
)

// Strategy selects the §2.4 replica-usage policy.
type Strategy int

const (
	// StrategyFailover retries unavailable resources replica-by-replica in
	// Metalink priority order (the paper's default: resilience at no
	// performance cost), and spreads multi-stream downloads over the
	// Metalink replicas.
	StrategyFailover Strategy = iota
	// StrategyNone disables Metalink handling entirely: every operation
	// reads its primary alone.
	StrategyNone
)

// Options configures a Client. The zero value dials real TCP with the
// failover strategy enabled. Every field is a setting some program turns;
// what no deployment tunes is a constant: a vectored read merges only
// touching fragments and carries at most 256 ranges a request, the pool
// keeps up to 64 idle connections per host for 60 s, and a retry sleeps a
// half-jittered backoff.
type Options struct {
	// Dialer establishes transport connections (netsim.Network for
	// simulations); nil dials TCP via net.Dialer.
	Dialer pool.Dialer

	// MaxPerHost caps concurrent connections per host; 0 lets the pool
	// grow with the level of concurrency, the paper's default behaviour.
	// Idle connections are kept up to 64 per host, for 60 s each.
	//
	// It is the client's one concurrency budget: every fan-out runs
	// min(pieces, default, hosts × MaxPerHost) workers, so none starts a
	// worker that could only queue for a connection. The defaults: a
	// vectored read sends all its multi-range batches at once, a Walk
	// keeps 8 PROPFINDs in flight, and a multi-stream upload, pull copy
	// or download moves 4 chunks at once. hosts is 1 except for a
	// download, which draws on every distinct host of its replica ring.
	// At MaxPerHost 1 each is the paper-faithful serial path: vectored
	// batches go in order, a walk speculates nothing, and an upload is
	// one whole-body PUT, byte-identical to Put.
	MaxPerHost int

	// RequestTimeout bounds each individual request round trip (header
	// received); 0 means no timeout beyond ctx.
	RequestTimeout time.Duration

	// Strategy selects the Metalink policy (default StrategyFailover).
	Strategy Strategy

	// MetalinkHost, when set, is the federation front-end queried for
	// Metalink replica lists ("fed.example.org:80"). When empty the
	// original host itself is asked (?metalink).
	MetalinkHost string

	// ChunkSize is the multi-stream chunk granularity (default 1 MiB).
	ChunkSize int64

	// Retry bounds the engine's retry-with-backoff layer for idempotent
	// operations. The zero value (and any Attempts < 1) is normalized to
	// Attempts=1: no retries. Attempts > 1 absorbs transient 5xx and
	// transport failures with exponential backoff.
	Retry RetryPolicy

	// Auth, when non-nil, attaches Bearer or Basic credentials to every
	// request. They are not forwarded across a cross-host redirect.
	Auth *Credentials

	// S3, when non-nil, signs every request with AWS Signature V4 —
	// davix's cloud-storage mode (paper §1: S3 REST APIs over HTTP).
	S3 *s3.Credentials

	// VerifyTransfers enables end-to-end integrity checking, one rule at
	// every entry point that moves a whole object:
	//   - Get holds the body against the server's X-Checksum, in whatever
	//     algorithm it names (crc32c from this repository's gateway,
	//     adler32 from DPM/dCache).
	//   - Put, PutReader of a known size, and the one whole-body PUT an
	//     UploadMultiStream of one chunk or one worker sends, tee the body
	//     as it leaves and hold it against the Digest the server commits it
	//     with.
	//   - DownloadMultiStream, DownloadMultiStreamTo and the chunked
	//     uploads of UploadMultiStream and CopyStream tee every chunk
	//     through an incremental digest and combine the per-chunk sums into
	//     the whole-object value (adler32/crc32 combine math), held against
	//     the server's checksum (Metalink, HEAD) or commit Digest; each
	//     chunk's 202 receipt is checked as it arrives.
	// Each verdict counts once: a whole transfer that matched adds one to
	// Metrics.TransfersVerified and fires ClientTrace.Verified; a failed
	// comparison adds one to Metrics.ChecksumMismatches and fails its
	// transfer (or, where a chunk can fail over, that chunk's read) with
	// ErrChecksumMismatch, a *ChecksumError naming the offending byte
	// span. The algorithm is negotiated once per transfer — the client
	// offers digest.Preference (Want-Digest "crc32c, adler32;q=0.5") and
	// uses what the reply names: crc32c, hashed at hardware speed,
	// wherever the server names it, adler32 when it names nothing else —
	// and then flows through every sum, rollup, journal and comparison of
	// that transfer. Known-but-unimplemented server algorithms fail with
	// ErrChecksumUnsupported instead of being skipped. The digest tees off
	// the same pooled buffers every payload byte already passes through,
	// so verification costs no extra read.
	VerifyTransfers bool

	// HedgeDelay tunes hedged chunk reads for multi-replica downloads:
	// when a chunk read outlives this latency budget, the engine races a
	// duplicate request against the next-ranked healthy replica; the first
	// complete result wins and the loser is cancelled. Zero (the default)
	// derives the budget from the engine's live chunk-read P99 once enough
	// samples exist; a positive value fixes the budget; a negative value
	// disables hedging. Hedging never engages with a single replica.
	// Snapshot reports HedgesIssued, HedgeWins and HedgeWastedBytes.
	HedgeDelay time.Duration

	// Resume enables checkpointed transfers: DownloadMultiStreamTo and
	// UploadMultiStream with a local *os.File journal each completed
	// chunk (offset, length, digest) to a "<file>" + CheckpointSuffix
	// sidecar, and an interrupted transfer restarted with Resume on and
	// the same geometry re-verifies each journaled chunk's recorded digest
	// against the bytes actually on disk, moving only what is missing or
	// no longer matches.
	// The journal is never trusted without re-verification, so a torn
	// journal write or an unflushed page can never yield a phantom-complete
	// chunk. The sidecar is removed when the transfer completes (or when
	// nothing was journaled).
	Resume bool

	// TLS, when non-nil, upgrades every pooled connection to a TLS client
	// session with this configuration (ServerName defaults to the dialed
	// host). A ClientSessionCache shared across all pool shards is
	// installed when the config does not bring its own, so reconnect-heavy
	// profiles resume sessions instead of paying full handshakes
	// (pool.Stats.TLSResumes counts the saves).
	TLS *tls.Config

	// PrefetchDepth is ignored.
	//
	// Deprecated: the client has no block cache; read-ahead is rootio's
	// window pipeline over File.ReadVecAsyncCtx, sized by its own depth
	// (NewTreeCacheDepth). ROADMAP item 1(h) removes the benchmark's use of
	// this field, and then the field.
	PrefetchDepth int

	// VectorParallelism is ignored.
	//
	// Deprecated: MaxPerHost sizes every fan-out, a vectored read's
	// batches included; ROADMAP item 1(h) removes the benchmark's use of
	// this field, and then the field.
	VectorParallelism int

	// WalkParallelism is ignored.
	//
	// Deprecated: MaxPerHost sizes every fan-out, a Walk's PROPFINDs
	// included; ROADMAP item 1(h) removes the benchmark's use of this
	// field, and then the field.
	WalkParallelism int

	// UploadParallelism is ignored.
	//
	// Deprecated: MaxPerHost sizes every fan-out, a chunked upload's
	// included; ROADMAP item 1(h) removes the benchmark's use of this
	// field, and then the field.
	UploadParallelism int

	// MaxStreams is ignored.
	//
	// Deprecated: MaxPerHost sizes every fan-out, a multi-stream
	// download's chunks included; ROADMAP item 1(h) removes the
	// benchmark's use of this field, and then the field.
	MaxStreams int

	// Trace, when non-nil, installs httptrace-style hooks the engine fires
	// for every event: operation start/end, wire requests, connection
	// acquisition, redirect hops, retries, replica failovers, breaker
	// trips, speculative fetches, and per-chunk progress of multi-stream
	// transfers. Hooks run inline on hot paths and may fire concurrently,
	// so they must be fast and thread-safe; an unset hook costs one nil
	// check. obs.SlogTrace renders every event as a log/slog record.
	Trace *obs.ClientTrace
}

// Credentials carries request authentication. Exactly one mechanism
// should be set.
type Credentials struct {
	// Bearer is an OAuth-style token ("Authorization: Bearer <t>"), the
	// WLCG token-based auth davix grew to support.
	Bearer string
	// Username/Password select HTTP Basic auth.
	Username, Password string
}

// header renders the Authorization header value.
func (cr *Credentials) header() string {
	if cr.Bearer != "" {
		return "Bearer " + cr.Bearer
	}
	return "Basic " + base64.StdEncoding.EncodeToString([]byte(cr.Username+":"+cr.Password))
}

// withDefaults validates and normalizes the options once, in New, so the
// hot path never sees nonsense values: zero means "use the documented
// default", and negative sizes/counts that have no meaning are normalized
// the same way rather than reaching arithmetic as-is.
func (o Options) withDefaults() Options {
	// A nil Dialer dials plain TCP.
	if o.Dialer == nil {
		o.Dialer = pool.DialerFunc(func(ctx context.Context, addr string) (net.Conn, error) {
			return new(net.Dialer).DialContext(ctx, "tcp", addr)
		})
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = 1 << 20
	}
	if o.RequestTimeout < 0 {
		o.RequestTimeout = 0
	}
	// Retry budget: Attempts < 1 means no retries; backoff fields only
	// matter once retries are possible.
	if o.Retry.Attempts < 1 {
		o.Retry.Attempts = 1
	}
	if o.Retry.BaseBackoff <= 0 {
		o.Retry.BaseBackoff = 50 * time.Millisecond
	}
	if o.Retry.CapBackoff <= 0 {
		o.Retry.CapBackoff = 2 * time.Second
	}
	if o.Retry.CapBackoff < o.Retry.BaseBackoff {
		o.Retry.CapBackoff = o.Retry.BaseBackoff
	}
	return o
}

// userAgent is the User-Agent header stamped on every request.
const userAgent = "godavix/1.0"

// Client executes HTTP I/O through a shared connection pool. It is safe
// for concurrent use; the pool grows with the level of concurrency, which
// is the paper's dispatch design (Figure 2).
type Client struct {
	pool *pool.Pool
	opts Options

	// metrics collects the client-wide counters behind Metrics().
	metrics metrics
	// health is the per-host scoreboard reordering replica rings.
	health *healthBoard
}

// NewClient creates a Client.
func NewClient(opts Options) (*Client, error) {
	opts = opts.withDefaults()
	c := &Client{opts: opts}
	c.health = newHealthBoard()
	c.health.trace = opts.Trace
	// Every connection counts its wire bytes into the client metrics. TLS,
	// when configured, wraps OVER the counting layer so the counters see
	// ciphertext — the bytes that actually crossed the wire.
	c.pool = pool.New(countingDialer{d: opts.Dialer, m: &c.metrics}, pool.Options{
		MaxPerHost: opts.MaxPerHost,
		TLS:        opts.TLS,
	})
	return c, nil
}

// Close releases all pooled connections.
func (c *Client) Close() { c.pool.Close() }

// Response couples a parsed wire response with the pooled connection it
// arrived on, in one struct that exchanges recycle. Closing the Response
// disarms the exchange's cancellation hook and recycles or discards the
// connection. A Response lives until the handler it was given returns: the
// strings its Header holds stay valid after that, its Header slice and Body
// do not.
type Response struct {
	wire.Response
	conn   *pool.Conn
	client *Client
	// stop disarms the exchange's cancellation hook (nil for a ctx that
	// can never be cancelled); it reports false once the hook has fired.
	stop   func() bool
	closed bool
	// dropWire marks an exchange whose wire bytes must not be charged to
	// BytesUp/BytesDown: an abandoned redirect hop, whose request is about
	// to be re-sent in full to the next target.
	dropWire bool
	// spent marks the response to a request whose one-shot body has been
	// read: a redirect it carries cannot be followed, the body is gone.
	spent bool
}

// responses recycles Responses once their handlers have returned.
var responses = sync.Pool{New: func() any { return new(Response) }}

// release hands r back for a later exchange to reuse, disarming the
// cancellation hook of a handler that did not close it.
func (r *Response) release() {
	if r.stop != nil {
		r.stop()
	}
	*r = Response{}
	responses.Put(r)
}

// Close finishes the response: a keep-alive body that is fully consumed,
// or whose remainder Close drains (one known to be at most 64 KiB, or a
// chunked body that ends within 64 KiB), recycles the connection; anything
// else discards it, as does a cancellation whose hook has fired (the
// slammed deadline poisons the connection). Either way, the exchange's
// pending wire bytes are settled into the client counters first
// (committed normally, dropped for an abandoned redirect hop). It never
// fails: the error is always nil.
func (r *Response) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	recycle := r.KeepAlive && r.Consumed()
	if !recycle && r.KeepAlive && r.Remaining() <= 64<<10 {
		// Drain a small remainder, or up to 64 KiB of a chunked body, so the
		// connection stays usable. A larger known remainder is given up at
		// once: reading it would cost more than a new dial.
		io.CopyN(io.Discard, r.Body, 64<<10)
		recycle = r.Consumed()
	}
	if r.stop != nil && !r.stop() {
		recycle = false
	}
	if cc, ok := r.conn.NetConn().(*countingConn); ok {
		if r.dropWire {
			cc.drop()
		} else {
			cc.flush()
		}
	}
	if recycle {
		r.client.pool.Put(r.conn)
	} else {
		r.client.pool.Discard(r.conn)
	}
	return nil
}

// ReadAllAndClose drains the body and closes the response. Known-length
// bodies are read with one exactly-sized allocation (wire.Response.ReadAll).
func (r *Response) ReadAllAndClose() ([]byte, error) {
	b, err := r.ReadAll()
	r.Close()
	return b, err
}

// doOnce performs exactly one pooled round trip. replayable reports that a
// failure justifies one transparent replay: the connection had been used
// before (a keep-alive session the server may have closed while idle), and
// no byte of a one-shot body has left its source. authHost scopes
// Bearer/Basic credentials: they are attached only when the request targets
// that host, so a cross-host redirect hop never leaks them to a
// neighbouring node.
func (c *Client) doOnce(ctx context.Context, host string, spec reqSpec, req *wire.Request, authHost string) (resp *Response, replayable bool, err error) {
	// A cancelled operation never reaches the wire: the pool hands out an
	// idle connection without looking at ctx.
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	conn, err := c.pool.Get(ctx, host)
	if err != nil {
		return nil, false, err
	}
	reused := conn.Uses() > 1
	c.opts.Trace.EmitConnAcquired(host, reused)
	// The standing deadline is armed first: set after the hook below, it
	// would erase a cancellation that had already fired.
	if err := c.applyDeadline(ctx, conn); err != nil {
		c.pool.Discard(conn)
		return nil, reused, err
	}
	// The exchange's one cancellation hook. Connection I/O only honours
	// deadlines, so a cancelled ctx (a settled hedge race, an abandoned
	// transfer) slams the deadline into the past, which fails a write of
	// the request, a wait for its head or a read of its body at once.
	// Response.Close (or release) disarms it. The hook may still be running
	// after stop reports false, and the Response is recycled once its
	// handler returns, so the hook holds the connection, never the Response.
	resp = responses.Get().(*Response)
	resp.conn, resp.client = conn, c
	if ctx.Done() != nil {
		resp.stop = context.AfterFunc(ctx, func() {
			conn.NetConn().SetDeadline(time.Unix(1, 0))
		})
	}
	spent, err := c.roundTrip(ctx, conn, spec, req, authHost, &resp.Response)
	if err != nil {
		c.pool.Discard(conn)
		resp.release()
		return nil, reused && !spent, ctxErr(ctx, err)
	}
	resp.spent = spent
	return resp, reused, nil
}

// ctxErr reports err, a failure of an exchange under ctx, as ctx's own
// error once ctx is done (its hook fired, or the standing deadline, ctx's
// own, beat ctx's timer): callers classify context errors specially (they
// propagate, never trigger failover, never charge a host), and the i/o
// timeout the slammed deadline manufactured is no fault of the server.
func ctxErr(ctx context.Context, err error) error {
	d, ok := ctx.Deadline()
	if err == nil || ctx.Err() == nil && (!ok || time.Now().Before(d)) {
		return err
	}
	<-ctx.Done()
	return ctx.Err()
}

// roundTrip writes req and reads the response header into resp on conn,
// whose deadline the caller has armed. An expect spec sends the body behind
// the Expect: 100-continue exchange; spent reports that the body's source
// was read.
func (c *Client) roundTrip(ctx context.Context, conn *pool.Conn, spec reqSpec, req *wire.Request, authHost string, resp *wire.Response) (spent bool, err error) {
	c.prepare(req, authHost)
	c.metrics.requests.Add(1)
	c.opts.Trace.EmitRequest(req.Method, req.Host, req.Path)
	if spec.expect {
		return c.sendExpecting(ctx, conn, req, resp)
	}
	if err := req.Write(conn.NetConn()); err != nil {
		return false, fmt.Errorf("davix: write request: %w", err)
	}
	if err := wire.ReadResponseInto(resp, conn.Reader(), req.Method); err != nil {
		return false, fmt.Errorf("davix: read response: %w", err)
	}
	return false, nil
}

// expectContinueWait bounds how long a streaming PUT waits for the
// server's 100 Continue before sending the body anyway — RFC 9110
// §10.1.1 requires not waiting indefinitely, since servers may omit the
// interim response entirely. Matches net/http's default.
const expectContinueWait = time.Second

// sendExpecting writes req's headers with Expect: 100-continue, then —
// after the server's 100 Continue, or after expectContinueWait if the
// server never speaks — its body, and reads the final response into resp,
// skipping any late interim. A final
// verdict before the body (a redirect, a refusal, an early 2xx) is returned
// as the response with the source untouched, so a redirect can be followed
// with the same reader; the server may still believe the body is coming on
// this connection, so KeepAlive is cleared and Close discards it.
func (c *Client) sendExpecting(ctx context.Context, conn *pool.Conn, req *wire.Request, resp *wire.Response) (bool, error) {
	nc := conn.NetConn()
	req.Header.Set("Expect", "100-continue")
	if err := req.WriteHeader(nc); err != nil {
		return false, fmt.Errorf("davix: write request: %w", err)
	}
	// Peek consumes nothing, so a silent server cannot desync the stream:
	// on timeout the body simply goes out.
	if err := c.awaitInterim(ctx, conn); err == nil {
		if err := wire.ReadResponseInto(resp, conn.Reader(), req.Method); err != nil {
			return false, fmt.Errorf("davix: read response: %w", err)
		}
		if resp.StatusCode != 100 {
			resp.KeepAlive = false
			return false, nil
		}
	} else if !isTimeout(err) {
		return false, err
	}
	if err := req.WriteBody(nc); err != nil {
		return true, fmt.Errorf("davix: write body: %w", err)
	}
	c.recordPayload(obs.Up, req.ContentLength)
	for {
		if err := wire.ReadResponseInto(resp, conn.Reader(), req.Method); err != nil {
			return true, fmt.Errorf("davix: read response: %w", err)
		}
		if resp.StatusCode != 100 {
			return true, nil
		}
	}
}

// awaitInterim waits up to expectContinueWait (bounded further by the
// connection's standing deadline) for the first byte of the server's
// interim response, without consuming it. A timeout return means the
// server stayed silent and the caller should send the body. Both deadline
// changes would erase a cancellation's slammed deadline, so ctx is checked
// after each.
func (c *Client) awaitInterim(ctx context.Context, conn *pool.Conn) error {
	if conn.Reader().Buffered() > 0 {
		return nil
	}
	wait := time.Now().Add(expectContinueWait)
	if standing := c.deadlineFor(ctx); !standing.IsZero() && standing.Before(wait) {
		wait = standing
	}
	if err := conn.NetConn().SetReadDeadline(wait); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	_, err := conn.Reader().Peek(1)
	// Restore the standing deadline whatever happened.
	if derr := c.applyDeadline(ctx, conn); derr != nil && err == nil {
		err = derr
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// isTimeout reports whether err is an I/O deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// deadlineFor resolves the I/O deadline RequestTimeout and ctx impose
// (zero when unbounded).
func (c *Client) deadlineFor(ctx context.Context) time.Time {
	deadline := time.Time{}
	if c.opts.RequestTimeout > 0 {
		deadline = time.Now().Add(c.opts.RequestTimeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	return deadline
}

// applyDeadline arms conn's I/O deadline from RequestTimeout and ctx.
func (c *Client) applyDeadline(ctx context.Context, conn *pool.Conn) error {
	return conn.NetConn().SetDeadline(c.deadlineFor(ctx))
}

// prepare stamps the standing headers (User-Agent, auth, S3 signature) on
// req before it is written to a connection. Bearer/Basic credentials are
// attached only when the request targets authHost — the host the caller's
// chain started at — so a cross-host redirect hop (head node bouncing to a
// neighbouring disk node) never receives them. S3 requests are instead
// signed fresh for every request: SigV4 covers the Host header, so each
// hop gets a signature valid for its own host, never a replayable one.
func (c *Client) prepare(req *wire.Request, authHost string) {
	if req.Header.Get("User-Agent") == "" {
		req.Header.Set("User-Agent", userAgent)
	}
	if c.opts.Auth != nil && req.Host == authHost && req.Header.Get("Authorization") == "" {
		req.Header.Set("Authorization", c.opts.Auth.header())
	}
	if c.opts.S3 != nil {
		s3.Sign(req, *c.opts.S3, time.Now())
	}
}

// statusErr builds a StatusError for req/resp after discarding the body.
func statusErr(resp *Response, method, path string) error {
	// Capture the header before Discard tears the response down: a 503
	// from a shedding gateway carries the backoff it wants honoured.
	ra := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
	resp.Discard()
	resp.Close()
	return &StatusError{Code: resp.StatusCode, Status: resp.Status,
		Method: method, Path: path, RetryAfter: ra}
}

// ErrNoMetalink reports a server that answered a Metalink negotiation with
// something other than a Metalink document (typically the object itself).
var ErrNoMetalink = errors.New("davix: server returned no metalink")

// GetMetalink fetches the Metalink document for path. The federation host
// is preferred when configured; otherwise the resource's own host is asked.
// A server that ignores the Accept negotiation and streams the object body
// instead yields ErrNoMetalink without the probe consuming the payload.
func (c *Client) GetMetalink(ctx context.Context, host, path string) (*metalink.Metalink, error) {
	target := host
	if c.opts.MetalinkHost != "" {
		target = c.opts.MetalinkHost
	}
	var ml *metalink.Metalink
	err := c.exec(ctx, target, path, specMetalink, func(h, p string) *wire.Request {
		req := wire.NewRequest("GET", h, p)
		req.Header.Set("Accept", metalink.MediaType)
		return req
	}, func(_ Replica, resp *Response) error {
		if resp.StatusCode != 200 {
			return statusErr(resp, "GET(metalink)", path)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, metalink.MediaType) {
			// The server ignored the negotiation and is streaming the
			// object itself. A discovery probe must never cost a payload
			// read: Close drains at most 64KiB before giving the
			// connection up, instead of draining an object-sized body
			// just to fail the Metalink decode.
			resp.Close()
			return ErrNoMetalink
		}
		body, err := resp.ReadAllAndClose()
		if err != nil {
			return err
		}
		ml, err = metalink.Decode(body)
		return err
	})
	if err != nil {
		return nil, err
	}
	return ml, nil
}
