// Package rangev implements the vectored ("packed") I/O machinery of the
// paper's §2.3: gathering many small random reads into one HTTP/1.1
// multi-range request, and scattering the multipart/byteranges response
// back into the caller's fragments.
//
// A HEP analysis reads thousands of small scattered segments (compressed
// ROOT baskets) per file. Issuing them individually pays one network round
// trip each; davix instead coalesces them (a data-sieving pass with a
// configurable gap threshold) and ships a single
//
//	Range: bytes=a-b,c-d,...
//
// request, which "virtually eliminates the need for I/O multiplexing".
package rangev

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"godavix/internal/bufpool"
)

// Range describes one requested fragment of a remote resource.
type Range struct {
	// Off is the byte offset of the fragment.
	Off int64
	// Len is the fragment length in bytes; must be > 0.
	Len int64
}

// End returns the exclusive end offset.
func (r Range) End() int64 { return r.Off + r.Len }

// Validation errors.
var (
	ErrInvalidRange = errors.New("rangev: invalid range")
	ErrNoRanges     = errors.New("rangev: no ranges")
)

// Validate checks that every range has positive length and non-negative
// offset.
func Validate(ranges []Range) error {
	if len(ranges) == 0 {
		return ErrNoRanges
	}
	for _, r := range ranges {
		if r.Off < 0 || r.Len <= 0 {
			return fmt.Errorf("%w: off=%d len=%d", ErrInvalidRange, r.Off, r.Len)
		}
	}
	return nil
}

// Frame is a coalesced contiguous span that covers one or more requested
// ranges. Members indexes into the original request slice.
type Frame struct {
	// Off and Len delimit the span actually fetched from the server.
	Off, Len int64
	// Members lists the indices of the caller ranges served by this frame.
	Members []int
}

// End returns the exclusive end offset of the frame.
func (f Frame) End() int64 { return f.Off + f.Len }

// Coalesce sorts the requested ranges and merges any two spans whose gap is
// at most gap bytes (data sieving: reading a small hole is cheaper than an
// extra part). gap = 0 merges only touching/overlapping ranges. The
// returned frames are sorted, non-overlapping, and collectively cover every
// requested byte.
func Coalesce(ranges []Range, gap int64) []Frame {
	if len(ranges) == 0 {
		return nil
	}
	idx := make([]int, len(ranges))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ra, rb := ranges[idx[a]], ranges[idx[b]]
		if ra.Off != rb.Off {
			return ra.Off < rb.Off
		}
		return ra.End() < rb.End()
	})

	var frames []Frame
	cur := Frame{Off: ranges[idx[0]].Off, Len: ranges[idx[0]].Len, Members: []int{idx[0]}}
	for _, i := range idx[1:] {
		r := ranges[i]
		if r.Off <= cur.End()+gap {
			if r.End() > cur.End() {
				cur.Len = r.End() - cur.Off
			}
			cur.Members = append(cur.Members, i)
			continue
		}
		frames = append(frames, cur)
		cur = Frame{Off: r.Off, Len: r.Len, Members: []int{i}}
	}
	return append(frames, cur)
}

// RangeHeader renders the frames as an HTTP Range header value:
// "bytes=0-99,200-249".
func RangeHeader(frames []Frame) string {
	var b strings.Builder
	b.WriteString("bytes=")
	for i, f := range frames {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d-%d", f.Off, f.End()-1)
	}
	return b.String()
}

// ParseContentRange parses a "bytes first-last/total" Content-Range value.
// total is -1 when the server sent "*". A range ending at or past a known
// total is invalid (RFC 9110 §14.4), and so is one whose length does not
// fit an int64, so off+length never overflows.
func ParseContentRange(v string) (off, length, total int64, err error) {
	const pfx = "bytes "
	if !strings.HasPrefix(v, pfx) {
		return 0, 0, 0, fmt.Errorf("rangev: bad Content-Range %q", v)
	}
	spec, totStr, ok := strings.Cut(v[len(pfx):], "/")
	if !ok {
		return 0, 0, 0, fmt.Errorf("rangev: bad Content-Range %q", v)
	}
	first, last, ok := strings.Cut(spec, "-")
	if !ok {
		return 0, 0, 0, fmt.Errorf("rangev: bad Content-Range %q", v)
	}
	off, err = strconv.ParseInt(strings.TrimSpace(first), 10, 64)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("rangev: bad Content-Range %q", v)
	}
	end, err := strconv.ParseInt(strings.TrimSpace(last), 10, 64)
	if err != nil || end < off {
		return 0, 0, 0, fmt.Errorf("rangev: bad Content-Range %q", v)
	}
	if t := strings.TrimSpace(totStr); t == "*" {
		total = -1
	} else {
		total, err = strconv.ParseInt(t, 10, 64)
		if err != nil || end >= total {
			return 0, 0, 0, fmt.Errorf("rangev: bad Content-Range %q", v)
		}
	}
	if end == math.MaxInt64 {
		return 0, 0, 0, fmt.Errorf("rangev: bad Content-Range %q", v)
	}
	return off, end - off + 1, total, nil
}

// StreamScatter consumes body — a stream whose first byte sits at absolute
// offset bodyOff — and scatters the member ranges of the given frames into
// dsts as the bytes flow past, using a pooled scratch block instead of
// buffering the whole body. frames must be sorted and non-overlapping (the
// Coalesce output order) and every frame must start at or after bodyOff.
//
// Reading stops at the end of the last frame; the caller decides what to do
// with the remainder of the stream (drain it for connection recycling, or
// drop the connection when the tail is large). A body that ends before the
// last frame byte yields an error wrapping io.ErrUnexpectedEOF.
func StreamScatter(body io.Reader, bodyOff int64, frames []Frame, ranges []Range, dsts [][]byte) error {
	scratch := bufpool.Get(64 << 10)
	defer bufpool.Put(scratch)
	return streamScatter(body, bodyOff, frames, ranges, dsts, scratch)
}

// streamScatter is StreamScatter through the caller's scratch block.
func streamScatter(body io.Reader, bodyOff int64, frames []Frame, ranges []Range, dsts [][]byte, scratch []byte) error {
	if len(frames) == 0 {
		return nil
	}
	maxEnd := frames[len(frames)-1].End()
	pos := bodyOff
	fi := 0
	for pos < maxEnd {
		n, err := body.Read(scratch)
		if n > 0 {
			chunkEnd := pos + int64(n)
			for fi < len(frames) && frames[fi].End() <= pos {
				fi++
			}
			for j := fi; j < len(frames) && frames[j].Off < chunkEnd; j++ {
				scatterChunk(frames[j], pos, scratch[:n], ranges, dsts)
			}
			pos = chunkEnd
		}
		if err != nil {
			if err == io.EOF {
				if pos < maxEnd {
					return fmt.Errorf("rangev: body ends at %d before frame end %d: %w",
						pos, maxEnd, io.ErrUnexpectedEOF)
				}
				return nil
			}
			return err
		}
	}
	return nil
}

// scatterChunk copies the overlap between one streamed chunk (spanning
// [pos, pos+len(chunk)) in absolute offsets) and each member range of f
// into the destination buffers — the shared inner loop of every streaming
// scatter path.
func scatterChunk(f Frame, pos int64, chunk []byte, ranges []Range, dsts [][]byte) {
	chunkEnd := pos + int64(len(chunk))
	for _, m := range f.Members {
		r := ranges[m]
		lo, hi := r.Off, r.End()
		if lo < pos {
			lo = pos
		}
		if hi > chunkEnd {
			hi = chunkEnd
		}
		if lo < hi {
			copy(dsts[m][lo-r.Off:hi-r.Off], chunk[lo-pos:hi-pos])
		}
	}
}
