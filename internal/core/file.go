package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"godavix/internal/blockcache"
	"godavix/internal/bufpool"
	"godavix/internal/rangev"
	"godavix/internal/wire"
)

// File is a remote object opened for random-access reads, the engine under
// the paper's TDavixFile. It implements io.Reader, io.ReaderAt, io.Seeker
// and the vectored ReadVec that TTreeCache-style callers use. All reads
// transparently fail over to Metalink replicas under StrategyFailover, and
// with Options.CacheSize set they are served through the client's shared
// block cache (with read-ahead on detected scans when
// Options.PrefetchDepth > 0).
//
// Open fetches the object's first endsHead and last endsTail bytes with
// its size, and reads lying wholly inside them are copied from memory: a
// ROOT file's header, trailer and index cost no round trip of their own.
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
	// endsMu guards the ends buffer: reads copy out of it, and Close
	// returns it to the pool, under the lock.
	endsMu sync.Mutex
	ends   rangev.Ends
}

// The ends Open fetches: a ROOT file's header sits in its first bytes, its
// trailer and index in its last, and 64 KiB in all is one pooled buffer.
const (
	endsHead = 4 << 10
	endsTail = 60 << 10
)

var endsRange = rangev.EndsHeader(endsHead, endsTail)

// Open learns the size of host/path and returns a File positioned at 0.
// It sends one GET for the object's first endsHead and last endsTail bytes
// (with failover), taking the size from the reply and keeping the bytes
// for later reads. A server that answers otherwise — a collection, an
// unsatisfiable range — is stat'ed instead, as the collection check needs.
func (c *Client) Open(ctx context.Context, host, path string) (*File, error) {
	f := &File{client: c, ctx: ctx, host: host, path: path}
	var dir bool
	err := c.withFailover(ctx, host, path, func(r Replica) error {
		var err error
		dir, err = f.open(r)
		return err
	})
	if err != nil {
		return nil, err
	}
	if dir {
		return nil, fmt.Errorf("davix: open %s: is a collection", path)
	}
	return f, nil
}

// open sets f's size, and its ends when the reply carries them, from one
// replica.
func (f *File) open(r Replica) (dir bool, err error) {
	stat := false
	err = f.client.exec(f.ctx, r.Host, r.Path, specOpen, func(h, p string) *wire.Request {
		req := wire.NewRequest("GET", h, p)
		req.Header.Set("Range", endsRange)
		return req
	}, func(_ Replica, resp *Response) error {
		if resp.StatusCode == 404 {
			return statusErr(resp, "GET", f.path)
		}
		if resp.StatusCode == 200 && resp.ContentLength > endsHead+endsTail {
			// The server ignores Range: the size is all this reply gives,
			// and its body is not worth reading.
			f.size, resp.KeepAlive, stat = resp.ContentLength, false, false
			return resp.Close()
		}
		e := rangev.NewEnds(bufpool.Get(endsHead+endsTail), endsHead)
		err := readEnds(&e, resp)
		resp.Close()
		if stat = err != nil; stat {
			// No ends this client can place (a collection's 409, another 416, an
			// unknown size): open the way a Stat does.
			bufpool.Put(e.Buf())
			return nil
		}
		f.ends, f.size = e, e.Size
		return nil
	})
	if err != nil || !stat {
		return false, err
	}
	inf, err := f.client.Stat(f.ctx, r.Host, r.Path)
	f.size = inf.Size
	return inf.Dir, err
}

// readEnds fills e from a 206 answer to the ends request, or from a 200
// carrying the whole object. An empty object has no range to send:
// net/http answers 206 with "bytes 0--1/0", RFC 9110 a 416 with
// "bytes */0"; either is size 0 with no ends.
func readEnds(e *rangev.Ends, resp *Response) error {
	off, n, total := int64(0), resp.ContentLength, resp.ContentLength
	switch cr := resp.Header.Get("Content-Range"); {
	case resp.StatusCode == 206 && cr == "bytes 0--1/0", resp.StatusCode == 416 && cr == "bytes */0":
		return e.SetSize(0)
	case resp.StatusCode == 200:
	case resp.StatusCode == 206:
		if boundary, ok := rangev.IsMultipartByteranges(resp.Header.Get("Content-Type")); ok {
			return e.ReadMultipart(resp.Body, boundary)
		}
		// One part: the server coalesced the ranges or served one of them.
		var err error
		if off, n, total, err = rangev.ParseContentRange(cr); err != nil {
			return err
		}
	default:
		return fmt.Errorf("davix: open: status %d", resp.StatusCode)
	}
	if err := e.SetSize(total); err != nil {
		return err
	}
	return e.Fill(off, n, resp.Body)
}

// fromEnds is the front of every read: it validates the request against
// the object — a range ending past Size fails here, before the ends or the
// wire see it — copies each range lying wholly inside the ends into its
// destination, and returns the rest, the ranges that still need the wire.
// ranges and dsts come back unchanged when nothing was copied.
func (f *File) fromEnds(ranges []rangev.Range, dsts [][]byte) ([]rangev.Range, [][]byte, error) {
	if err := validateVec(ranges, dsts); err != nil {
		return nil, nil, err
	}
	for _, r := range ranges {
		if r.Off > f.size-r.Len {
			return nil, nil, fmt.Errorf("%w: [%d,+%d) ends past the object's %d bytes", rangev.ErrInvalidRange, r.Off, r.Len, f.size)
		}
	}
	f.endsMu.Lock()
	defer f.endsMu.Unlock()
	if f.closed.Load() {
		return nil, nil, ErrFileClosed
	}
	var missR []rangev.Range
	var missD [][]byte
	hit := false
	for i, r := range ranges {
		if b := f.ends.Lookup(r.Off, r.Len); b != nil {
			copy(dsts[i], b)
			if !hit {
				hit = true
				missR = append(missR, ranges[:i]...)
				missD = append(missD, dsts[:i]...)
			}
		} else if hit {
			missR = append(missR, r)
			missD = append(missD, dsts[i])
		}
	}
	if !hit {
		return ranges, dsts, nil
	}
	return missR, missD, nil
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
	if off < 0 {
		return 0, fmt.Errorf("davix: read at negative offset %d", off)
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
	if miss, _, err := f.fromEnds([]rangev.Range{{Off: off, Len: want}}, [][]byte{p}); err != nil {
		return 0, err
	} else if len(miss) == 0 {
		n = int(want)
	} else if f.client.cache != nil {
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

// ReadVec performs a vectored read of ranges into dsts with failover.
// Ranges inside the ends are copied from memory, and with caching enabled
// cache-resident fragments are too; only the rest goes on the wire.
func (f *File) ReadVec(ranges []rangev.Range, dsts [][]byte) error {
	ranges, dsts, err := f.fromEnds(ranges, dsts)
	if err != nil || len(ranges) == 0 {
		return err
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
	ranges, dsts, err := f.fromEnds(ranges, dsts)
	if err != nil || len(ranges) == 0 {
		done <- err
		return done
	}
	var total int64
	for _, r := range ranges {
		total += r.Len
	}
	f.client.metrics.prefetchIssued.Add(1)
	f.client.metrics.prefetchBytes.Add(total)
	f.client.opts.Trace.EmitPrefetchIssued(f.path, len(ranges), total)
	go func() {
		inner, cancel := context.WithCancel(ctx)
		stop := context.AfterFunc(f.ctx, cancel)
		err := f.client.ReadVec(inner, f.host, f.path, ranges, dsts)
		stop()
		cancel()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			f.client.metrics.prefetchCancelled.Add(1)
		}
		f.client.opts.Trace.EmitPrefetchSettled(f.path, total, err)
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
	f.endsMu.Lock()
	buf := f.ends.Buf()
	f.ends = rangev.Ends{}
	f.endsMu.Unlock()
	if buf != nil {
		bufpool.Put(buf)
	}
	if f.client.cache != nil {
		f.client.cache.Invalidate(cacheKey(f.host, f.path))
	}
	return nil
}
