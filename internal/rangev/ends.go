package rangev

import (
	"fmt"
	"io"
	"strconv"
)

// Ends is an object's size plus resident copies of its first and last
// bytes, as one "Range: bytes=0-(head-1),-tail" request (EndsHeader)
// returns them, and answers reads that lie wholly inside them. ROOT-style
// files keep their header at the front and their index and trailer at the
// back, so opening one this way learns the size and serves the reader's
// first reads from memory.
//
// The bytes live in one caller-supplied buffer of head+tail bytes: object
// byte i < head at buf[i], object byte i ≥ Size-tail at the buffer's end,
// or the whole object from buf[0] when it fits. Where a byte goes depends
// only on Size, so parts may arrive in any order once a Content-Range
// total has named it.
type Ends struct {
	// Size is the object size, from a Content-Range total; -1 until known.
	Size int64
	buf  []byte
	head int64
	have [2]Range // the resident span of each window; Len 0 if none
}

// NewEnds returns empty Ends over buf, whose first head bytes hold the
// object's head and the rest its tail.
func NewEnds(buf []byte, head int) Ends {
	return Ends{Size: -1, buf: buf, head: int64(head)}
}

// EndsHeader is the Range header value asking for an object's first head
// and last tail bytes.
func EndsHeader(head, tail int) string {
	return "bytes=0-" + strconv.Itoa(head-1) + ",-" + strconv.Itoa(tail)
}

// Buf returns the buffer the ends are held in.
func (e *Ends) Buf() []byte { return e.buf }

// SetSize records the object size a Content-Range total declares. An
// unknown total ("*", -1) or one contradicting an earlier part fails.
func (e *Ends) SetSize(total int64) error {
	switch {
	case total < 0:
		return fmt.Errorf("rangev: ends: object size unknown")
	case e.Size >= 0 && total != e.Size:
		return fmt.Errorf("rangev: ends: parts disagree on the object size (%d, %d)", e.Size, total)
	}
	e.Size = total
	return nil
}

// windows returns the object spans the buffer holds once Size is known.
func (e *Ends) windows() [2]Range {
	if n := int64(len(e.buf)); e.Size > n {
		return [2]Range{{0, e.head}, {e.Size - (n - e.head), n - e.head}}
	}
	return [2]Range{{0, e.Size}}
}

// slot maps a windowed object offset to its buffer index.
func (e *Ends) slot(off int64) int64 {
	if n := int64(len(e.buf)); e.Size > n && off >= e.head {
		return off - (e.Size - n)
	}
	return off
}

// Fill stores the bytes of the part [off, off+n) that lie inside the
// windows, reading them from r, which delivers the part's payload from its
// first byte. r is read only up to the last stored byte; the caller owns
// the rest. SetSize must have been called.
func (e *Ends) Fill(off, n int64, r io.Reader) error {
	if e.Size < 0 || off < 0 || n < 0 || off > e.Size-n {
		return fmt.Errorf("rangev: ends: part [%d,+%d) outside an object of %d bytes", off, n, e.Size)
	}
	pos := off
	for i, w := range e.windows() {
		lo, hi := max(w.Off, off), min(w.End(), off+n)
		if lo >= hi {
			continue
		}
		if lo > pos {
			if _, err := io.CopyN(io.Discard, r, lo-pos); err != nil {
				return fmt.Errorf("rangev: ends: part truncated: %w", err)
			}
		}
		s := e.slot(lo)
		if _, err := io.ReadFull(r, e.buf[s:s+hi-lo]); err != nil {
			return fmt.Errorf("rangev: ends: part truncated: %w", err)
		}
		e.add(i, Range{lo, hi - lo})
		pos = hi
	}
	return nil
}

// add records r as resident in window w, merged with the span already
// there when the two touch. A window keeps one span: a second that does not
// touch the first is forgotten, and Lookup then misses on it, which is
// always safe.
func (e *Ends) add(w int, r Range) {
	switch h := e.have[w]; {
	case h.Len == 0:
		e.have[w] = r
	case r.Off <= h.End() && h.Off <= r.End():
		lo, hi := min(h.Off, r.Off), max(h.End(), r.End())
		e.have[w] = Range{lo, hi - lo}
	}
}

// Lookup returns the resident bytes [off, off+n), or nil unless every one
// of them is resident. The slice aliases the buffer.
func (e *Ends) Lookup(off, n int64) []byte {
	for _, h := range e.have {
		if h.Len > 0 && n > 0 && off >= h.Off && n <= h.End()-off {
			s := e.slot(off)
			return e.buf[s : s+n]
		}
	}
	return nil
}

// ReadMultipart fills e from the multipart/byteranges answer to an ends
// request. Parts may come in any order and carry any ranges; their
// Content-Range totals must agree and name the size.
func (e *Ends) ReadMultipart(body io.Reader, boundary string) error {
	pr := newPartReader(body, boundary)
	defer pr.release()
	for {
		off, length, total, ok, err := pr.next()
		if err != nil || !ok {
			return err
		}
		if err := e.SetSize(total); err != nil {
			return err
		}
		if err := e.Fill(off, length, pr); err != nil {
			return err
		}
	}
}
