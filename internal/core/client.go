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
	"time"

	"godavix/internal/blockcache"
	"godavix/internal/metalink"
	"godavix/internal/obs"
	"godavix/internal/pool"
	"godavix/internal/rangev"
	"godavix/internal/s3"
	"godavix/internal/wire"
)

// Strategy selects the §2.4 replica-usage policy.
type Strategy int

const (
	// StrategyFailover retries unavailable resources replica-by-replica in
	// Metalink priority order (the paper's default: resilience at no
	// performance cost).
	StrategyFailover Strategy = iota
	// StrategyMultiStream downloads different chunks from different
	// replicas in parallel (maximizes client bandwidth, loads servers).
	StrategyMultiStream
	// StrategyNone disables Metalink handling entirely.
	StrategyNone
)

// Options configures a Client. The zero value dials real TCP with the
// failover strategy enabled.
type Options struct {
	// Dialer establishes transport connections (netsim.Network for
	// simulations); nil dials TCP via net.Dialer.
	Dialer pool.Dialer

	// MaxPerHost caps concurrent connections per host; 0 lets the pool
	// grow with the level of concurrency, the paper's default behaviour.
	// Idle connections are kept up to 64 per host, for 60 s each.
	MaxPerHost int

	// RequestTimeout bounds each individual request round trip (header
	// received); 0 means no timeout beyond ctx.
	RequestTimeout time.Duration

	// CoalesceGap is the data-sieving threshold for vectored reads: holes
	// of at most this many bytes are fetched and discarded to merge
	// neighbouring fragments into one range (default 0: merge only
	// touching fragments).
	CoalesceGap int64

	// MaxRangesPerRequest splits very large vectored reads into several
	// multi-range requests, respecting server header-size limits
	// (default 256).
	MaxRangesPerRequest int

	// VectorParallelism bounds how many of a vectored read's multi-range
	// batches are in flight concurrently, each on its own pooled
	// connection. 0 (the default) opens one connection per batch, capped
	// by MaxPerHost; 1 restores fully serial dispatch.
	VectorParallelism int

	// WalkParallelism bounds how many PROPFINDs a Walk keeps in flight
	// concurrently across pooled connections. 0 (the default) uses
	// defaultWalkParallelism (8) capped by MaxPerHost; 1 restores the
	// serial depth-first recursion. Entry delivery order is identical
	// at every setting.
	WalkParallelism int

	// UploadParallelism bounds how many ChunkSize chunks of one
	// UploadMultiStream (or pull-mode CopyStream) are in flight
	// concurrently, each as a Content-Range PUT on its own pooled
	// connection. 0 (the default) uses defaultUploadParallelism (4) capped
	// by MaxPerHost; 1 restores the single-stream whole-body PUT, which
	// is byte-identical on the wire to Put (the paper-faithful path).
	UploadParallelism int

	// Strategy selects the Metalink policy (default StrategyFailover).
	Strategy Strategy

	// MetalinkHost, when set, is the federation front-end queried for
	// Metalink replica lists ("fed.example.org:80"). When empty the
	// original host itself is asked (?metalink).
	MetalinkHost string

	// MaxStreams bounds parallel per-replica streams in multi-stream mode
	// (default 4).
	MaxStreams int

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

	// VerifyTransfers enables end-to-end integrity checking. A
	// full-object Get is compared against the server's X-Checksum header,
	// in whatever algorithm it names (crc32c from this repository's
	// gateway, adler32 from DPM/dCache). Streaming transfers verify
	// inline: tee'd incremental digests accumulate per chunk during
	// multi-stream uploads and downloads and combine into the whole-object
	// value (adler32/crc32 combine math), verified against the server's
	// Digest/Want-Digest headers or checksum property at zero extra reads.
	// The algorithm is negotiated once per transfer — the client offers
	// digest.Preference (Want-Digest "crc32c, adler32;q=0.5") and uses what
	// the reply names: crc32c, hashed at hardware speed, wherever the
	// server names it, adler32 when it names nothing else — and then flows
	// through every sum, rollup, journal and comparison of that transfer.
	// Failures surface as ErrChecksumMismatch naming the offending byte
	// span; known-but-unimplemented server algorithms fail with
	// ErrChecksumUnsupported instead of being skipped. Verification needs
	// to observe every byte in userspace, so it routes transfers onto the
	// pooled-buffer path (the kernel sendfile/splice path reports itself
	// via Snapshot counters when this is off).
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

	// CacheSize enables the shared client-side block cache: the total
	// number of remote-data bytes kept in memory across all files
	// (0 disables caching; every read then hits the network as before).
	// Reads served from cache cost no round trip; concurrent misses on one
	// block issue a single GET.
	CacheSize int64

	// BlockSize is the cache page granularity in bytes (default 64 KiB;
	// meaningful only with CacheSize > 0).
	BlockSize int64

	// PrefetchDepth is the block cache's read-ahead lookahead (requires
	// CacheSize > 0): > 0 runs the cache's stride planner, which arms at
	// once on a contiguous scan and after two equal strides on a sparse
	// one, keeping that many predicted reads in flight as coalesced
	// speculative requests, and makes File.PrefetchHint feed layout
	// foreknowledge into it. At most 16 MiB of speculation is in flight at
	// once, so it never starves demand reads. 0 (the default) disables
	// read-ahead. rootio's window pipeline over File.ReadVecAsyncCtx is
	// sized by its own depth (NewTreeCacheDepth), not by this option.
	PrefetchDepth int

	// StatTTL caches Stat/Open metadata — including negative 404 results —
	// for this duration, absorbing stat storms (0 disables).
	StatTTL time.Duration

	// Trace, when non-nil, installs httptrace-style hooks the engine fires
	// for every event: operation start/end, wire requests, connection
	// acquisition, redirect hops, retries, replica failovers, breaker
	// trips, cache hits and misses, and per-chunk progress of multi-stream
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
	if o.MaxRangesPerRequest <= 0 {
		o.MaxRangesPerRequest = 256
	}
	if o.MaxStreams <= 0 {
		o.MaxStreams = 4
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = 1 << 20
	}
	// Parallelism knobs: 0 already means "derive from the pool"; negative
	// values have no meaning and collapse to the same derivation.
	if o.VectorParallelism < 0 {
		o.VectorParallelism = 0
	}
	if o.WalkParallelism < 0 {
		o.WalkParallelism = 0
	}
	if o.UploadParallelism < 0 {
		o.UploadParallelism = 0
	}
	if o.CoalesceGap < 0 {
		o.CoalesceGap = 0
	}
	if o.RequestTimeout < 0 {
		o.RequestTimeout = 0
	}
	// Cache knobs: negative disables, like zero.
	if o.CacheSize < 0 {
		o.CacheSize = 0
	}
	if o.BlockSize < 0 {
		o.BlockSize = 0
	}
	if o.PrefetchDepth < 0 {
		o.PrefetchDepth = 0
	}
	if o.StatTTL < 0 {
		o.StatTTL = 0
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

// prefetchBudget bounds the speculative bytes the block cache's read-ahead
// keeps in flight at once.
const prefetchBudget = 16 << 20

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

	// cache is the shared block cache (nil when Options.CacheSize == 0).
	cache *blockcache.Cache
	// statc is the TTL'd metadata cache (nil when Options.StatTTL == 0).
	statc *blockcache.StatCache[Info]
	// bgCancel stops the cache's background prefetches at Close.
	bgCancel context.CancelFunc
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
	if opts.CacheSize > 0 {
		bg, cancel := context.WithCancel(context.Background())
		c.bgCancel = cancel
		cfg := blockcache.Config{
			Capacity:       opts.CacheSize,
			BlockSize:      opts.BlockSize,
			ReadAhead:      opts.PrefetchDepth,
			Background:     bg,
			FetchVec:       c.cacheFetchVec(),
			PrefetchBudget: prefetchBudget,
		}
		cfg.OnPrefetchIssued = func(key string, spans int, bytes int64) {
			c.metrics.prefetchIssued.Add(1)
			c.metrics.prefetchBytes.Add(bytes)
			c.opts.Trace.EmitPrefetchIssued(prettyKey(key), spans, bytes)
		}
		cfg.OnPrefetchSettled = func(key string, bytes int64, err error) {
			c.opts.Trace.EmitPrefetchSettled(prettyKey(key), bytes, err)
		}
		if tr := opts.Trace; tr != nil {
			if tr.CacheHit != nil {
				cfg.OnHit = func(key string, blocks int64) { tr.CacheHit(prettyKey(key), blocks) }
			}
			if tr.CacheMiss != nil {
				cfg.OnMiss = func(key string, blocks int64) { tr.CacheMiss(prettyKey(key), blocks) }
			}
		}
		c.cache = blockcache.New(cfg)
	}
	if opts.StatTTL > 0 {
		c.statc = blockcache.NewStatCache[Info](opts.StatTTL)
	}
	return c, nil
}

// Close stops background prefetches and releases all pooled connections.
func (c *Client) Close() {
	if c.bgCancel != nil {
		c.bgCancel()
	}
	c.pool.Close()
}

// CacheStats reports the block-cache and stat-cache counters. All zeros
// when caching is disabled.
func (c *Client) CacheStats() blockcache.Stats {
	var st blockcache.Stats
	if c.cache != nil {
		st = c.cache.Stats()
	}
	if c.statc != nil {
		st.StatHits, st.StatMisses = c.statc.Counters()
	}
	return st
}

// cacheKey names host/path in the shared caches. Replicated reads cache
// under the primary name the caller asked for.
func cacheKey(host, path string) string { return host + "\x00" + path }

// prettyKey renders a cacheKey for trace consumers ("host/path" instead of
// the NUL-separated internal form).
func prettyKey(key string) string { return strings.Replace(key, "\x00", "", 1) }

// invalidateCache drops cached blocks and metadata for host/path after a
// mutation (Put, Delete, Mkdir) so readers never see stale data from this
// client. It returns the block cache's post-invalidation generation (zero
// without a cache) for writers that follow up with a write-through
// PutSpan.
func (c *Client) invalidateCache(host, path string) uint64 {
	var gen uint64
	if c.cache != nil {
		gen = c.cache.Invalidate(cacheKey(host, path))
	}
	if c.statc != nil {
		c.statc.Invalidate(cacheKey(host, path))
	}
	return gen
}

// cacheFetch returns the Fetch the block cache uses to fill pages of
// host/path: a plain range GET with the same replica failover as any
// uncached read.
func (c *Client) cacheFetch(host, path string) blockcache.Fetch {
	return func(ctx context.Context, off, length int64) ([]byte, error) {
		return c.getRange(ctx, host, path, off, length)
	}
}

// cacheFetchVec returns the vectored fetch the cache's read-ahead uses
// for coalesced speculation: one multi-range request through the
// pooled engine, with the same replica failover as demand reads. It
// bypasses the cached read path — the cache installs the blocks itself.
func (c *Client) cacheFetchVec() blockcache.FetchVec {
	return func(ctx context.Context, key string, spans []blockcache.Span, dsts [][]byte) error {
		host, path, _ := strings.Cut(key, "\x00")
		ranges := make([]rangev.Range, len(spans))
		for i, sp := range spans {
			ranges[i] = rangev.Range{Off: sp.Off, Len: sp.Len}
		}
		return c.withFailover(ctx, host, path, func(r Replica) error {
			return c.readVecOnce(ctx, r.Host, r.Path, ranges, dsts)
		})
	}
}

// CloseIdlePool drops pooled idle connections for host, e.g. once the host
// is known to be down.
func (c *Client) CloseIdlePool(host string) { c.pool.CloseIdle(host) }

// Response couples a parsed wire response with the pooled connection it
// arrived on. Closing the Response recycles or discards the connection.
type Response struct {
	*wire.Response
	conn   *pool.Conn
	client *Client
	closed bool
	// dropWire marks an exchange whose wire bytes must not be charged to
	// BytesUp/BytesDown: an abandoned redirect hop, whose request is about
	// to be re-sent in full to the next target.
	dropWire bool
	// spent marks the response to a request whose one-shot body has been
	// read: a redirect it carries cannot be followed, the body is gone.
	spent bool
}

// Close finishes the response: a fully-consumed keep-alive body recycles
// the connection; anything else discards it. Either way, the exchange's
// pending wire bytes are settled into the client counters first (committed
// normally, dropped for an abandoned redirect hop).
func (r *Response) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	recycle := r.KeepAlive && r.Consumed()
	if !recycle && r.KeepAlive {
		// Try to drain a small remainder so the connection stays usable.
		if _, err := io.CopyN(io.Discard, r.Body, 64<<10); err == io.EOF && r.Consumed() {
			recycle = true
		}
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
	cerr := r.Close()
	if err == nil {
		err = cerr
	}
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
	conn, err := c.pool.Get(ctx, host)
	if err != nil {
		return nil, false, err
	}
	reused := conn.Uses() > 1
	c.opts.Trace.EmitConnAcquired(host, reused)
	// Cancellation must reach a round trip blocked writing the request or
	// awaiting response headers: connection I/O only honours deadlines, so
	// a cancelled ctx (a settled hedge race, an abandoned transfer) would
	// otherwise pin this goroutine until the server answers. The slammed
	// deadline poisons the connection, so every path below that saw the
	// hook fire discards it rather than recycling it. The standing deadline
	// is armed first: set after the hook, it would erase a cancellation
	// that had already fired.
	if err := c.applyDeadline(ctx, conn); err != nil {
		c.pool.Discard(conn)
		return nil, reused, err
	}
	stop := context.AfterFunc(ctx, func() {
		conn.NetConn().SetDeadline(time.Unix(1, 0))
	})
	wr, spent, err := c.roundTrip(ctx, conn, spec, req, authHost)
	if !stop() || err != nil && ctxExpired(ctx) {
		// ctx is done (the hook fired, or the standing deadline — ctx's
		// own — beat ctx's timer). Report the cancellation itself, not the
		// i/o timeout the deadline manufactured: callers classify context
		// errors specially (they must propagate, never trigger failover).
		<-ctx.Done()
		err = ctx.Err()
	}
	if err != nil {
		c.pool.Discard(conn)
		return nil, reused && !spent, err
	}
	return &Response{Response: wr, conn: conn, client: c, spent: spent}, reused, nil
}

// ctxExpired reports whether ctx's deadline has passed, even if ctx's
// timer has not fired yet.
func ctxExpired(ctx context.Context) bool {
	d, ok := ctx.Deadline()
	return ctx.Err() != nil || ok && !time.Now().Before(d)
}

// roundTrip writes req and reads the response header on conn, whose
// deadline the caller has armed. An expect spec sends the body behind the
// Expect: 100-continue exchange; spent reports that the body's source was
// read.
func (c *Client) roundTrip(ctx context.Context, conn *pool.Conn, spec reqSpec, req *wire.Request, authHost string) (resp *wire.Response, spent bool, err error) {
	c.prepare(req, authHost)
	c.metrics.requests.Add(1)
	c.opts.Trace.EmitRequest(req.Method, req.Host, req.Path)
	if spec.expect {
		return c.sendExpecting(ctx, conn, req)
	}
	if err := req.Write(conn.NetConn()); err != nil {
		return nil, false, fmt.Errorf("davix: write request: %w", err)
	}
	resp, err = wire.ReadResponse(conn.Reader(), req.Method)
	if err != nil {
		return nil, false, fmt.Errorf("davix: read response: %w", err)
	}
	return resp, false, nil
}

// expectContinueWait bounds how long a streaming PUT waits for the
// server's 100 Continue before sending the body anyway — RFC 9110
// §10.1.1 requires not waiting indefinitely, since servers may omit the
// interim response entirely. Matches net/http's default.
const expectContinueWait = time.Second

// sendExpecting writes req's headers with Expect: 100-continue, then —
// after the server's 100 Continue, or after expectContinueWait if the
// server never speaks — its body, and reads the final response, skipping
// any late interim. A final
// verdict before the body (a redirect, a refusal, an early 2xx) is returned
// as the response with the source untouched, so a redirect can be followed
// with the same reader; the server may still believe the body is coming on
// this connection, so KeepAlive is cleared and Close discards it.
func (c *Client) sendExpecting(ctx context.Context, conn *pool.Conn, req *wire.Request) (*wire.Response, bool, error) {
	nc := conn.NetConn()
	req.Header.Set("Expect", "100-continue")
	if err := req.WriteHeader(nc); err != nil {
		return nil, false, fmt.Errorf("davix: write request: %w", err)
	}
	// Peek consumes nothing, so a silent server cannot desync the stream:
	// on timeout the body simply goes out.
	if err := c.awaitInterim(ctx, conn); err == nil {
		interim, err := wire.ReadResponse(conn.Reader(), req.Method)
		if err != nil {
			return nil, false, fmt.Errorf("davix: read response: %w", err)
		}
		if interim.StatusCode != 100 {
			interim.KeepAlive = false
			return interim, false, nil
		}
	} else if !isTimeout(err) {
		return nil, false, err
	}
	bp := obs.PathPooled
	if req.DirectBody(nc) && kernelEligible(nc) {
		bp = obs.PathKernel
	}
	if err := req.WriteBody(nc); err != nil {
		return nil, true, fmt.Errorf("davix: write body: %w", err)
	}
	c.recordBytePath(obs.Up, req.Path, bp, req.ContentLength)
	for {
		resp, err := wire.ReadResponse(conn.Reader(), req.Method)
		if err != nil {
			return nil, true, fmt.Errorf("davix: read response: %w", err)
		}
		if resp.StatusCode != 100 {
			return resp, true, nil
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
	if req.Header == nil {
		req.Header = wire.Header{}
	}
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
