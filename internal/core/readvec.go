package core

import (
	"context"
	"errors"
	"fmt"
	"io"

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
//
// The whole read fails over to the next replica together. The coalesced
// frames are cut into MaxRangesPerRequest batches that fan out over pooled
// connections, VectorParallelism at a time. Batches write disjoint
// destination buffers (each caller range is a member of exactly one frame,
// and each frame sits in exactly one batch), so scattering needs no
// coordination.
func (c *Client) ReadVec(ctx context.Context, host, path string, ranges []rangev.Range, dsts [][]byte) error {
	if err := validateVec(ranges, dsts); err != nil {
		return err
	}
	frames := rangev.Coalesce(ranges, c.opts.CoalesceGap)
	per := c.opts.MaxRangesPerRequest
	n := (len(frames) + per - 1) / per
	par := c.parallelism(c.opts.VectorParallelism, n, n)
	return c.withFailover(ctx, host, path, nil, func(r Replica) error {
		return fanOut(ctx, n, par, func(ctx context.Context, i int) error {
			batch := frames[i*per : min((i+1)*per, len(frames))]
			return c.readVecBatch(ctx, r.Host, r.Path, batch, ranges, dsts)
		})
	})
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
	defer resp.Close()
	switch resp.StatusCode {
	case 206:
		if boundary, ok := rangev.IsMultipartByteranges(resp.Header.Get("Content-Type")); ok {
			// Streaming scatter: part payloads land in dsts as they arrive,
			// never materialized — the batch costs no payload allocations.
			return rangev.ScatterMultipart(resp.Body, boundary, frames, ranges, dsts)
		}
		// Single Content-Range part: the server coalesced (or we sent one
		// frame); scatter straight out of the stream.
		off, length, _, err := rangev.ParseContentRange(resp.Header.Get("Content-Range"))
		if err != nil {
			resp.Discard()
			return fmt.Errorf("%w: %v", ErrVectorUnsupported, err)
		}
		for _, f := range frames {
			if f.Off < off || f.End() > off+length {
				resp.Discard()
				return fmt.Errorf("%w: single part [%d,+%d) does not cover frame [%d,+%d)",
					ErrVectorUnsupported, off, length, f.Off, f.Len)
			}
		}
		return rangev.StreamScatter(resp.Body, off, frames, ranges, dsts)

	case 200:
		// Range-ignorant server: the full body covers every frame. Stream
		// the prefix the frames actually need instead of buffering the
		// entire object; Close then drains a small remainder for recycling
		// or drops the connection when the unread tail is large.
		maxEnd := frames[len(frames)-1].End()
		if resp.ContentLength >= 0 && maxEnd > resp.ContentLength {
			resp.Discard()
			return fmt.Errorf("%w: body size %d < frame end %d", ErrVectorUnsupported, resp.ContentLength, maxEnd)
		}
		err := rangev.StreamScatter(resp.Body, 0, frames, ranges, dsts)
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("%w: body ends before frame end %d", ErrVectorUnsupported, maxEnd)
		}
		return err

	default:
		return statusErr(resp, "GET(vector)", path)
	}
}
