// Package davix is a Go implementation of the libdavix I/O library
// (Devresse & Furano, CERN 2014): an HTTP/WebDAV data-access layer
// optimized for high-performance-computing workloads.
//
// It provides:
//
//   - a dynamic connection pool with thread-safe request dispatch and
//     aggressive KeepAlive session recycling (paper §2.2);
//   - vectored random-access reads packed into HTTP/1.1 multi-range
//     requests, fed by TreeCache-style gathering (paper §2.3);
//   - Metalink-based transparent replica fail-over and multi-stream
//     parallel downloads (paper §2.4);
//   - POSIX-like remote file operations over plain HTTP/WebDAV: Open,
//     ReadAt, vectored Read, Stat, List, Put, Delete, Mkdir;
//   - read-ahead as ROOT's TTreeCache does it: internal/rootio's window
//     pipeline keeps the next analysis windows' vectored reads in flight
//     through File.ReadVecAsyncCtx under the current window's compute; the
//     client keeps no block or stat cache of its own;
//   - a parallel namespace engine: Walk fans PROPFINDs out across pooled
//     connections while preserving serial emission order, and multistatus
//     bodies are decoded streaming off the wire (Options.WalkParallelism);
//   - a parallel transfer engine: streaming uploads that never materialize
//     the body (PutReader), multi-stream chunked uploads over Content-Range
//     PUTs (UploadMultiStream, Options.UploadParallelism), client-mediated
//     pull-mode third-party copy (CopyStream), and zero-materialization
//     downloads to any io.WriterAt (DownloadMultiStreamTo);
//   - a layered resilience engine every operation executes through:
//     pooled-connection stale-recycle replays, redirect following with loop
//     detection and cross-host credential hygiene, bounded retry with
//     backoff (Options.Retry), Metalink replica failover, and a per-host
//     health scoreboard that demotes a node after 3 consecutive failures
//     and re-probes it after 2 s — all observable via Client.Snapshot;
//   - self-healing transfers: hedged chunk reads race a straggling
//     replica against the next-ranked one under a live-P99-derived (or
//     fixed) latency budget (Options.HedgeDelay), and checkpointed resume
//     journals per-chunk digests to a sidecar so an interrupted transfer
//     re-verifies and re-fetches only what is missing or corrupt
//     (Options.Resume);
//   - an observability plane: httptrace-style per-event hooks
//     (Options.Trace), structured logging of every engine decision through
//     log/slog (Trace: SlogTrace(l)), a unified counter snapshot spanning
//     engine and pool (Client.Snapshot), and zero-dependency
//     exposition as Prometheus text (Client.MetricsHandler) or expvar JSON
//     (Client.PublishExpvar).
//
// Quickstart:
//
//	client, err := davix.New(davix.Options{})         // real TCP
//	f, err := client.Open(ctx, "http://host:80/data/f.rnt")
//	buf := make([]byte, 4096)
//	n, err := f.ReadAt(buf, 0)
//
// All heavy lifting lives in internal packages; this package is the
// stable public surface.
package davix

import (
	"context"
	"errors"
	"io"
	"net/http"

	"godavix/internal/core"
	"godavix/internal/metalink"
	"godavix/internal/obs"
	"godavix/internal/pool"
	"godavix/internal/rangev"
	"godavix/internal/s3"
)

// Range designates one fragment of a remote resource for vectored reads.
type Range = rangev.Range

// Info describes a remote resource.
type Info = core.Info

// Strategy selects the replica-usage policy (paper §2.4).
type Strategy = core.Strategy

// Replica strategies.
const (
	// StrategyFailover (the default) resolves an object's replicas from
	// its Metalink. An operation tries its primary first and asks for the
	// Metalink only if the primary fails or its breaker is open; it then
	// walks the replicas in priority order, demoted hosts last, so it is
	// free while the primary is healthy. A multi-stream download asks for
	// the Metalink up front and spreads its chunks over every replica.
	StrategyFailover = core.StrategyFailover
	// StrategyNone disables Metalink processing: every operation,
	// multi-stream downloads included, reads its primary alone.
	StrategyNone = core.StrategyNone
)

// Sentinel errors re-exported for errors.Is.
var (
	// ErrNotFound reports a 404 from the server.
	ErrNotFound = core.ErrNotFound
	// ErrAllReplicasFailed reports an exhausted Metalink failover.
	ErrAllReplicasFailed = core.ErrAllReplicasFailed
	// ErrTooManyRedirects reports a redirect chain longer than 5 hops.
	ErrTooManyRedirects = core.ErrTooManyRedirects
	// ErrRedirectLoop reports a redirect cycle (A→B→A), detected on the
	// first revisited target instead of burning the redirect budget.
	ErrRedirectLoop = core.ErrRedirectLoop
)

// StatusError is the typed error for non-success HTTP statuses.
type StatusError = core.StatusError

// Dialer establishes transport connections. netsim.Network implements it
// for simulations; the zero Options uses real TCP.
type Dialer = pool.Dialer

// Options configures a Client. It is the engine's own option set, so the
// zero value dials real TCP with the failover strategy enabled.
type Options = core.Options

// ClientTrace is the httptrace-style hook set invoked at each engine
// event; see Options.Trace. The zero value (or nil) observes nothing.
type ClientTrace = obs.ClientTrace

// SlogTrace(l) returns a ClientTrace that records every engine event on
// the *slog.Logger l as a structured record: retries, failovers and
// breaker trips at Warn, completed operations at Info, per-request and
// per-chunk detail at Debug. Install it as Options.Trace; a nil l yields a
// nil trace.
var SlogTrace = obs.SlogTrace

// Direction distinguishes download from upload chunk events.
type Direction = obs.Direction

// Chunk-event directions.
const (
	// Down marks a download (GET) chunk event.
	Down = obs.Down
	// Up marks an upload (PUT) chunk event.
	Up = obs.Up
)

// Snapshot is the unified client stat surface: engine and pool counters
// captured in one call; see Client.Snapshot.
type Snapshot = core.Snapshot

// RetryPolicy bounds the retry-with-backoff layer; see Options.Retry.
type RetryPolicy = core.RetryPolicy

// Metrics are the client-wide engine counters — requests, retries,
// redirects, failovers, breaker trips, wire bytes up/down — and per-op
// latency quantiles; see Snapshot.Engine.
type Metrics = core.Metrics

// OpStats is one operation's latency summary inside Metrics.Ops.
type OpStats = core.OpStats

// S3Credentials identify an AWS SigV4 principal.
type S3Credentials = s3.Credentials

// Credentials carries request authentication (Bearer token or HTTP Basic).
type Credentials = core.Credentials

// ErrChecksumMismatch reports a failed end-to-end integrity check.
var ErrChecksumMismatch = core.ErrChecksumMismatch

// ErrChecksumUnsupported reports a server checksum in an algorithm this
// client does not implement, surfaced when Options.VerifyTransfers demands
// verification rather than silently skipping it.
var ErrChecksumUnsupported = core.ErrChecksumUnsupported

// ChecksumError is the concrete error behind ErrChecksumMismatch: it names
// the offending byte span and both digest values. Retrieve with errors.As.
type ChecksumError = core.ChecksumError

// ErrFileClosed reports use of a File after Close.
var ErrFileClosed = core.ErrFileClosed

// CheckpointSuffix names the resume journal a checkpointed transfer keeps
// next to its local file ("<file>" + CheckpointSuffix); see Options.Resume.
const CheckpointSuffix = core.CheckpointSuffix

// Client is the davix entry point. It is safe for concurrent use; all
// requests share one dynamic connection pool.
type Client struct {
	core *core.Client
}

// New creates a Client.
func New(opts Options) (*Client, error) {
	c, err := core.NewClient(opts)
	if err != nil {
		return nil, err
	}
	return &Client{core: c}, nil
}

// Close releases all pooled connections.
func (c *Client) Close() { c.core.Close() }

// Snapshot captures both stat surfaces — engine metrics and pool
// counters — in one call, the shape the exposition
// endpoints serve. Safe to call concurrently with in-flight operations.
func (c *Client) Snapshot() Snapshot { return c.core.Snapshot() }

// MetricsHandler returns an http.Handler serving this client's Snapshot in
// the Prometheus text exposition format, every metric prefixed with
// namespace ("davix_client_requests_total ..."). Zero dependencies — mount
// it on any mux as /metrics.
func (c *Client) MetricsHandler(namespace string) http.Handler {
	return obs.MetricsHandler(namespace, func() obs.Snapshot { return c.core.Snapshot().Expo() })
}

// PublishExpvar exports this client's Snapshot under name in the
// process-wide expvar registry (served by /debug/vars as JSON).
// Re-publishing a name replaces its source, so closed-and-rebuilt clients
// can keep one stable name.
func (c *Client) PublishExpvar(name string) {
	core := c.core
	obs.PublishExpvar(name, func() obs.Snapshot { return core.Snapshot().Expo() })
}

// splitURL parses "http://host:port/path" (scheme optional).
func splitURL(url string) (host, path string, err error) {
	host, path, err = metalink.SplitURL(url)
	if err != nil {
		return "", "", err
	}
	if host == "" {
		return "", "", errors.New("davix: empty host in URL")
	}
	return host, path, nil
}

// Get fetches the whole object at url.
func (c *Client) Get(ctx context.Context, url string) ([]byte, error) {
	host, path, err := splitURL(url)
	if err != nil {
		return nil, err
	}
	return c.core.Get(ctx, host, path)
}

// GetRange fetches length bytes at offset off from url.
func (c *Client) GetRange(ctx context.Context, url string, off, length int64) ([]byte, error) {
	host, path, err := splitURL(url)
	if err != nil {
		return nil, err
	}
	return c.core.GetRange(ctx, host, path, off, length)
}

// Put stores data at url.
func (c *Client) Put(ctx context.Context, url string, data []byte) error {
	host, path, err := splitURL(url)
	if err != nil {
		return err
	}
	return c.core.Put(ctx, host, path, data)
}

// PutReader streams size bytes from r to url without materializing the
// body in memory: the upload is sent with Expect: 100-continue, so
// head-node redirects are followed before any body byte is consumed from
// the (possibly non-seekable) reader. size < 0 uploads a source of unknown
// length with chunked transfer encoding.
func (c *Client) PutReader(ctx context.Context, url string, r io.Reader, size int64) error {
	host, path, err := splitURL(url)
	if err != nil {
		return err
	}
	return c.core.PutReader(ctx, host, path, r, size)
}

// UploadMultiStream stores size bytes from src at url by PUTting
// ChunkSize chunks concurrently with Content-Range headers over pooled
// connections (see Options.UploadParallelism) — the write-side twin of the
// multi-stream download. Servers that reject ranged PUTs fall back
// transparently to a single-stream upload; UploadParallelism=1 is
// byte-identical on the wire to Put.
func (c *Client) UploadMultiStream(ctx context.Context, url string, src io.ReaderAt, size int64) error {
	host, path, err := splitURL(url)
	if err != nil {
		return err
	}
	return c.core.UploadMultiStream(ctx, host, path, src, size)
}

// DownloadMultiStreamTo downloads url into w without materializing the
// object: chunks stream through pooled buffers straight to their offsets
// (memory stays O(chunk), not O(file)), spread over the Metalink replicas
// when available. Chunks complete out of order, so w must tolerate
// concurrent disjoint WriteAt calls (os.File does). Returns the object
// size written.
func (c *Client) DownloadMultiStreamTo(ctx context.Context, url string, w io.WriterAt) (int64, error) {
	host, path, err := splitURL(url)
	if err != nil {
		return 0, err
	}
	return c.core.DownloadMultiStreamTo(ctx, host, path, w)
}

// CopyStream copies srcURL to destURL through this client — pull-mode
// third-party copy, complementing the push-mode Copy for destinations the
// source server cannot reach. Ranged GETs from the source (with Metalink
// replica failover) are pipelined into ranged PUTs at the destination
// through pooled buffers; the object is never materialized client-side.
func (c *Client) CopyStream(ctx context.Context, srcURL, destURL string) error {
	host, path, err := splitURL(srcURL)
	if err != nil {
		return err
	}
	return c.core.CopyStream(ctx, host, path, destURL)
}

// Delete removes the object at url.
func (c *Client) Delete(ctx context.Context, url string) error {
	host, path, err := splitURL(url)
	if err != nil {
		return err
	}
	return c.core.Delete(ctx, host, path)
}

// Mkdir creates a collection at url (WebDAV MKCOL).
func (c *Client) Mkdir(ctx context.Context, url string) error {
	host, path, err := splitURL(url)
	if err != nil {
		return err
	}
	return c.core.Mkdir(ctx, host, path)
}

// Stat describes the resource at url, failing over to its Metalink
// replicas like a read.
func (c *Client) Stat(ctx context.Context, url string) (Info, error) {
	host, path, err := splitURL(url)
	if err != nil {
		return Info{}, err
	}
	return c.core.Stat(ctx, host, path)
}

// List returns the entries of the collection at url (PROPFIND depth 1).
func (c *Client) List(ctx context.Context, url string) ([]Info, error) {
	host, path, err := splitURL(url)
	if err != nil {
		return nil, err
	}
	return c.core.List(ctx, host, path)
}

// ReadVec performs one vectored multi-range read: ranges[i] lands in
// dsts[i] (paper §2.3).
func (c *Client) ReadVec(ctx context.Context, url string, ranges []Range, dsts [][]byte) error {
	host, path, err := splitURL(url)
	if err != nil {
		return err
	}
	return c.core.ReadVec(ctx, host, path, ranges, dsts)
}

// DownloadMultiStream fetches url using the multi-stream strategy:
// parallel chunk downloads spread over the Metalink replicas (paper §2.4).
func (c *Client) DownloadMultiStream(ctx context.Context, url string) ([]byte, error) {
	host, path, err := splitURL(url)
	if err != nil {
		return nil, err
	}
	return c.core.DownloadMultiStream(ctx, host, path)
}

// SkipDir prunes a subtree when returned from a Walk callback.
var SkipDir = core.SkipDir

// Walk traverses the namespace under url depth-first, calling fn for every
// entry (davix-ls -r behaviour). fn may return SkipDir to prune. Directory
// listings are fetched concurrently (see Options.WalkParallelism), but fn
// is always called sequentially, in depth-first lexical order. The root is
// listed before fn sees it, at every width, and its entry is that
// listing's response for the root, so a file root carries PROPFIND
// properties and no checksum, like every other entry; at WalkParallelism 1
// a collection below the root is listed only once fn has accepted it.
func (c *Client) Walk(ctx context.Context, url string, fn func(Info) error) error {
	host, path, err := splitURL(url)
	if err != nil {
		return err
	}
	return c.core.Walk(ctx, host, path, fn)
}

// Copy asks the source server to push srcURL's object to destURL (WebDAV
// third-party copy): the bytes flow server-to-server.
func (c *Client) Copy(ctx context.Context, srcURL, destURL string) error {
	host, path, err := splitURL(srcURL)
	if err != nil {
		return err
	}
	return c.core.Copy(ctx, host, path, destURL)
}

// File is a remote object opened for random-access reads. It embeds the
// engine file, exposing io.Reader / io.ReaderAt / io.Seeker plus ReadVec,
// with transparent Metalink failover.
type File = core.File

// Open returns a File for random-access reads of url. One GET learns the
// size and fetches the object's first 1 KiB and last 38 KiB, which later
// reads inside them are served from; the reply fits a fresh connection's
// first two congestion windows, and a ROOT index bigger than the tail
// costs one more round trip. A collection fails.
func (c *Client) Open(ctx context.Context, url string) (*File, error) {
	host, path, err := splitURL(url)
	if err != nil {
		return nil, err
	}
	return c.core.Open(ctx, host, path)
}
