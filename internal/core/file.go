package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"godavix/internal/blockcache"
	"godavix/internal/rangev"
)

// File is a remote object opened for random-access reads, the engine under
// the paper's TDavixFile. It implements io.Reader, io.ReaderAt, io.Seeker
// and the vectored ReadVec that TTreeCache-style callers use. All reads
// transparently fail over to Metalink replicas under StrategyFailover, and
// with Options.CacheSize set they are served through the client's shared
// block cache (with read-ahead on detected scans when
// Options.PrefetchDepth > 0).
//
// A File is safe for concurrent ReadAt/ReadVec; Read/Seek share a cursor
// and need external synchronization.
type File struct {
	client *Client
	ctx    context.Context
	host   string
	path   string
	size   int64
	off    int64
	closed atomic.Bool
}

// Open stats host/path (with failover) and returns a File positioned at 0.
func (c *Client) Open(ctx context.Context, host, path string) (*File, error) {
	var inf Info
	err := c.withFailover(ctx, host, path, func(r Replica) error {
		var err error
		inf, err = c.Stat(ctx, r.Host, r.Path)
		return err
	})
	if err != nil {
		return nil, err
	}
	if inf.Dir {
		return nil, fmt.Errorf("davix: open %s: is a collection", path)
	}
	return &File{client: c, ctx: ctx, host: host, path: path, size: inf.Size}, nil
}

// Size returns the object size learned at Open.
func (f *File) Size() int64 { return f.size }

// Path returns the object path.
func (f *File) Path() string { return f.path }

// ReadAt reads len(p) bytes at offset off, failing over across replicas.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if f.closed.Load() {
		return 0, ErrFileClosed
	}
	if off >= f.size {
		return 0, io.EOF
	}
	want := int64(len(p))
	if off+want > f.size {
		want = f.size - off
	}
	if want == 0 {
		return 0, nil
	}
	var n int
	if f.client.cache != nil {
		m, err := f.client.cache.ReadThrough(f.ctx, cacheKey(f.host, f.path), f.size,
			p[:want], off, f.client.cacheFetch(f.host, f.path))
		if err != nil {
			return 0, err
		}
		n = m
	} else {
		got, err := f.client.getRange(f.ctx, f.host, f.path, off, want)
		if err != nil {
			return 0, err
		}
		n = copy(p, got)
	}
	if int64(n) < int64(len(p)) {
		return n, io.EOF
	}
	return n, nil
}

// ReadVec performs a vectored read of ranges into dsts with failover,
// serving cache-resident fragments from memory when caching is enabled.
func (f *File) ReadVec(ranges []rangev.Range, dsts [][]byte) error {
	if f.closed.Load() {
		return ErrFileClosed
	}
	return f.client.ReadVec(f.ctx, f.host, f.path, ranges, dsts)
}

// ReadVecAsyncCtx starts a vectored read in the background and returns a
// buffered channel yielding its single completion error. Cancelling ctx
// abandons the fetch mid-flight (the channel then yields the cancellation
// error); the File's own context cancels it too. rootio's window pipeline
// uses this to keep the next analysis windows' transfers in flight under
// the current window's decode/compute — the async overlap the xrootd
// baseline gets from kXR_readv.
func (f *File) ReadVecAsyncCtx(ctx context.Context, ranges []rangev.Range, dsts [][]byte) <-chan error {
	done := make(chan error, 1)
	if f.closed.Load() {
		done <- ErrFileClosed
		return done
	}
	var total int64
	for _, r := range ranges {
		total += r.Len
	}
	f.client.metrics.prefetchIssued.Add(1)
	f.client.metrics.prefetchBytes.Add(total)
	f.client.trace.EmitPrefetchIssued(f.path, len(ranges), total)
	go func() {
		inner, cancel := context.WithCancel(ctx)
		stop := context.AfterFunc(f.ctx, cancel)
		err := f.client.ReadVec(inner, f.host, f.path, ranges, dsts)
		stop()
		cancel()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			f.client.metrics.prefetchCancelled.Add(1)
		}
		f.client.trace.EmitPrefetchSettled(f.path, total, err)
		done <- err
	}()
	return done
}

// PrefetchHint hands byte ranges the caller knows it will read soon to
// the cache's read-ahead planner, which may fetch them as coalesced
// speculation under the prefetch budget. A no-op without a cache or with
// PrefetchDepth 0.
func (f *File) PrefetchHint(ranges []rangev.Range) {
	if f.closed.Load() || f.client.cache == nil {
		return
	}
	spans := make([]blockcache.Span, len(ranges))
	for i, r := range ranges {
		spans[i] = blockcache.Span{Off: r.Off, Len: r.Len}
	}
	f.client.cache.Hint(cacheKey(f.host, f.path), f.size, spans, f.client.cacheFetch(f.host, f.path))
}

// Read implements io.Reader using the shared cursor.
func (f *File) Read(p []byte) (int, error) {
	if f.closed.Load() {
		return 0, ErrFileClosed
	}
	n, err := f.ReadAt(p, f.off)
	f.off += int64(n)
	return n, err
}

// Seek implements io.Seeker.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	if f.closed.Load() {
		return 0, ErrFileClosed
	}
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = f.off + offset
	case io.SeekEnd:
		abs = f.size + offset
	default:
		return 0, fmt.Errorf("davix: seek: invalid whence %d", whence)
	}
	if abs < 0 {
		return 0, fmt.Errorf("davix: seek: negative position %d", abs)
	}
	f.off = abs
	return abs, nil
}

// Close marks the handle closed — subsequent reads and seeks return
// ErrFileClosed, as does a second Close — and releases the file's blocks
// from the client's shared cache. The cache is keyed by host/path, so
// closing one handle also drops blocks another still-open handle on the
// same object had warmed; callers wanting cross-open reuse should keep the
// File open. Connections belong to the client pool and stay pooled.
func (f *File) Close() error {
	if f.closed.Swap(true) {
		return ErrFileClosed
	}
	if f.client.cache != nil {
		f.client.cache.Invalidate(cacheKey(f.host, f.path))
	}
	return nil
}
