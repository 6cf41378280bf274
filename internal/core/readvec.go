package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"godavix/internal/rangev"
	"godavix/internal/wire"
)

// ReadVec performs the paper's §2.3 vectored read: the requested fragments
// are coalesced (data sieving with Options.CoalesceGap), shipped as one or
// more HTTP multi-range requests, and the multipart/byteranges responses
// are scattered back into dsts. dsts[i] receives ranges[i] and must be at
// least ranges[i].Len bytes long.
//
// One network round trip typically serves hundreds of fragment reads,
// which is what lets HTTP compete with the HPC protocols' aggressive
// caching in the paper's Figure 4. When the read splits into several
// multi-range batches, the batches are dispatched concurrently across
// pooled connections (see Options.VectorParallelism) — the §2.2 pool grows
// with demand, so independent batches never queue behind each other on one
// borrowed session.
func (c *Client) ReadVec(ctx context.Context, host, path string, ranges []rangev.Range, dsts [][]byte) error {
	if err := validateVec(ranges, dsts); err != nil {
		return err
	}
	if c.cache != nil {
		return c.readVecCached(ctx, host, path, ranges, dsts)
	}
	return c.withFailover(ctx, host, path, func(r Replica) error {
		return c.readVecOnce(ctx, r.Host, r.Path, ranges, dsts)
	})
}

// readVecCached serves fragments wholly resident in the block cache from
// memory and ships only the rest as a multi-range request, afterwards
// caching every block the fetched fragments fully cover. A TreeCache window
// that revisits baskets thus shrinks each wire request to the cold subset.
func (c *Client) readVecCached(ctx context.Context, host, path string, ranges []rangev.Range, dsts [][]byte) error {
	key := cacheKey(host, path)
	var missR []rangev.Range
	var missD [][]byte
	for i, r := range ranges {
		if !c.cache.PeekSpan(key, dsts[i][:r.Len], r.Off) {
			missR = append(missR, r)
			missD = append(missD, dsts[i])
		}
	}
	if len(missR) == 0 {
		return nil
	}
	gen := c.cache.Generation()
	err := c.withFailover(ctx, host, path, func(r Replica) error {
		return c.readVecOnce(ctx, r.Host, r.Path, missR, missD)
	})
	if err != nil {
		return err
	}
	for i, r := range missR {
		c.cache.PutSpan(key, gen, r.Off, missD[i][:r.Len], false)
	}
	return nil
}

// validateVec checks the request shape before any network traffic, so
// caller bugs never trigger replica failover. It runs exactly once per
// ReadVec, in the public entry point — the per-replica retry path must not
// re-pay it on every failover attempt.
func validateVec(ranges []rangev.Range, dsts [][]byte) error {
	if err := rangev.Validate(ranges); err != nil {
		return err
	}
	if len(dsts) != len(ranges) {
		return fmt.Errorf("davix: %d ranges but %d destination buffers", len(ranges), len(dsts))
	}
	for i, r := range ranges {
		if int64(len(dsts[i])) < r.Len {
			return fmt.Errorf("davix: destination %d too small: %d < %d", i, len(dsts[i]), r.Len)
		}
	}
	return nil
}

// readVecOnce executes the vectored read against exactly one replica. The
// coalesced frames are cut into MaxRangesPerRequest batches; with more than
// one batch and parallelism available, the batches fan out concurrently,
// each on its own pooled connection.
func (c *Client) readVecOnce(ctx context.Context, host, path string, ranges []rangev.Range, dsts [][]byte) error {
	frames := rangev.Coalesce(ranges, c.opts.CoalesceGap)
	per := c.opts.MaxRangesPerRequest
	nBatches := (len(frames) + per - 1) / per
	if par := c.vectorParallelism(nBatches); par > 1 {
		return c.readVecParallel(ctx, host, path, frames, ranges, dsts, par)
	}
	for start := 0; start < len(frames); start += per {
		end := start + per
		if end > len(frames) {
			end = len(frames)
		}
		if err := c.readVecBatch(ctx, host, path, frames[start:end], ranges, dsts); err != nil {
			return err
		}
	}
	return nil
}

// vectorParallelism resolves the fan-out for a vectored read that splits
// into nBatches multi-range requests. Options.VectorParallelism wins when
// set; the default is one connection per batch, capped by the pool's
// MaxPerHost so vector reads cannot starve other traffic of pool slots.
func (c *Client) vectorParallelism(nBatches int) int {
	par := c.opts.VectorParallelism
	if par <= 0 {
		par = nBatches
		if m := c.opts.MaxPerHost; m > 0 && par > m {
			par = m
		}
	}
	if par > nBatches {
		par = nBatches
	}
	return par
}

// readVecParallel dispatches the frame batches concurrently, at most par in
// flight. Batches write disjoint destination buffers (each caller range is
// a member of exactly one frame, and each frame sits in exactly one batch),
// so scattering needs no coordination. The first batch error cancels the
// remaining work; the error recorded before cancellation is the one
// returned, so replica failover still sees the genuine failure rather than
// a sibling's context.Canceled.
func (c *Client) readVecParallel(ctx context.Context, host, path string, frames []rangev.Frame, ranges []rangev.Range, dsts [][]byte, par int) error {
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	sem := make(chan struct{}, par)
	per := c.opts.MaxRangesPerRequest
	for start := 0; start < len(frames); start += per {
		end := start + per
		if end > len(frames) {
			end = len(frames)
		}
		batch := frames[start:end]
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-gctx.Done():
				return
			}
			defer func() { <-sem }()
			if err := c.readVecBatch(gctx, host, path, batch, ranges, dsts); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
					cancel()
				}
				errMu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr == nil {
		// Cancellation can drain queued batches without any of them
		// recording an error; success must never be reported while dsts
		// are only partially filled (readVecCached would cache garbage).
		firstErr = ctx.Err()
	}
	return firstErr
}

// readVecBatch executes one multi-range request for a batch of frames.
// Failover stays at the ReadVec level (the whole vectored read moves to the
// next replica together), so the engine applies redirects and the retry
// budget only.
func (c *Client) readVecBatch(ctx context.Context, host, path string, frames []rangev.Frame, ranges []rangev.Range, dsts [][]byte) error {
	return c.exec(ctx, host, path, specVector, func(h, p string) *wire.Request {
		req := wire.NewRequest("GET", h, p)
		req.Header.Set("Range", rangev.RangeHeader(frames))
		return req
	}, func(_ Replica, resp *Response) error {
		return c.scatterVecResponse(resp, path, frames, ranges, dsts)
	})
}

// scatterVecResponse consumes one multi-range response, scattering the
// payload into dsts.
func (c *Client) scatterVecResponse(resp *Response, path string, frames []rangev.Frame, ranges []rangev.Range, dsts [][]byte) error {
	switch resp.StatusCode {
	case 206:
		if boundary, ok := rangev.IsMultipartByteranges(resp.Header.Get("Content-Type")); ok {
			// Streaming scatter: part payloads land in dsts as they arrive,
			// never materialized — the batch costs no payload allocations.
			if err := rangev.ScatterMultipart(resp.Body, boundary, frames, ranges, dsts); err != nil {
				resp.Close()
				return err
			}
			return resp.Close()
		}
		// Single Content-Range part: the server coalesced (or we sent one
		// frame); scatter straight out of the stream.
		off, length, _, err := rangev.ParseContentRange(resp.Header.Get("Content-Range"))
		if err != nil {
			resp.Discard()
			resp.Close()
			return fmt.Errorf("%w: %v", ErrVectorUnsupported, err)
		}
		for _, f := range frames {
			if f.Off < off || f.End() > off+length {
				resp.Discard()
				resp.Close()
				return fmt.Errorf("%w: single part [%d,+%d) does not cover frame [%d,+%d)",
					ErrVectorUnsupported, off, length, f.Off, f.Len)
			}
		}
		if err := rangev.StreamScatter(resp.Body, off, frames, ranges, dsts); err != nil {
			resp.Close()
			return err
		}
		return resp.Close()

	case 200:
		// Range-ignorant server: the full body covers every frame. Stream
		// the prefix the frames actually need instead of buffering the
		// entire object; Close then drains a small remainder for recycling
		// or drops the connection when the unread tail is large.
		maxEnd := frames[len(frames)-1].End()
		if resp.ContentLength >= 0 && maxEnd > resp.ContentLength {
			resp.Discard()
			resp.Close()
			return fmt.Errorf("%w: body size %d < frame end %d", ErrVectorUnsupported, resp.ContentLength, maxEnd)
		}
		if err := rangev.StreamScatter(resp.Body, 0, frames, ranges, dsts); err != nil {
			resp.Close()
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return fmt.Errorf("%w: body ends before frame end %d", ErrVectorUnsupported, maxEnd)
			}
			return err
		}
		return resp.Close()

	default:
		return statusErr(resp, "GET(vector)", path)
	}
}
