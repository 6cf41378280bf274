package rangev

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"mime"
	"sort"
	"strings"
	"sync"

	"godavix/internal/bufpool"
)

// IsMultipartByteranges reports whether the Content-Type announces a
// multipart/byteranges payload and returns its boundary.
func IsMultipartByteranges(contentType string) (boundary string, ok bool) {
	mt, params, err := mime.ParseMediaType(contentType)
	if err != nil {
		return "", false
	}
	if !strings.EqualFold(mt, "multipart/byteranges") {
		return "", false
	}
	b := params["boundary"]
	return b, b != ""
}

// prPool recycles part readers and their buffered readers, so the
// steady-state vector-read path does not allocate a 4 KiB reader per
// batch.
var prPool = sync.Pool{New: func() any { return &partReader{br: bufio.NewReaderSize(nil, 4096)} }}

// partReader walks a multipart/byteranges body one part at a time: the one
// header loop under ScatterMultipart and Ends.ReadMultipart. next parses a
// part's headers — only Content-Range matters, and no header map is built
// — and leaves the reader at the part's payload; Read serves that payload
// and nothing past it, and whatever a caller leaves unread is skipped by
// the following next.
type partReader struct {
	br    *bufio.Reader
	delim []byte
	left  int64 // payload bytes of the current part not yet consumed
}

func newPartReader(body io.Reader, boundary string) *partReader {
	p := prPool.Get().(*partReader)
	p.br.Reset(body)
	p.delim = append(append(p.delim[:0], "--"...), boundary...)
	p.left = 0
	return p
}

// release hands the reader back to its pool.
func (p *partReader) release() {
	p.br.Reset(nil)
	prPool.Put(p)
}

// next skips to the following part and returns its Content-Range; ok is
// false once the closing delimiter has been read.
func (p *partReader) next() (off, length, total int64, ok bool, err error) {
	if err := p.skip(p.left); err != nil {
		return 0, 0, 0, false, err
	}
	// The preamble before the first delimiter and the line break after a
	// payload are skipped alike.
	closed, err := skipToDelim(p.br, p.delim)
	if err != nil || closed {
		return 0, 0, 0, false, err
	}
	length = -1
	for {
		line, err := readTrimmedLine(p.br)
		if err != nil {
			return 0, 0, 0, false, fmt.Errorf("rangev: multipart headers: %w", err)
		}
		if len(line) == 0 {
			break
		}
		if v, ok := headerValue(line, "Content-Range"); ok {
			if off, length, total, err = ParseContentRange(string(v)); err != nil {
				return 0, 0, 0, false, err
			}
		}
	}
	if length < 0 {
		return 0, 0, 0, false, fmt.Errorf("rangev: multipart part missing Content-Range")
	}
	p.left = length
	return off, length, total, true, nil
}

// Read reads the current part's payload, reporting io.EOF at its end and
// io.ErrUnexpectedEOF when the body ends first.
func (p *partReader) Read(b []byte) (int, error) {
	if p.left <= 0 {
		return 0, io.EOF
	}
	if int64(len(b)) > p.left {
		b = b[:p.left]
	}
	n, err := p.br.Read(b)
	p.left -= int64(n)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

// skip discards n payload bytes.
func (p *partReader) skip(n int64) error {
	for n > 0 {
		d, err := p.br.Discard(int(min(n, 1<<30)))
		p.left -= int64(d)
		n -= int64(d)
		if err != nil {
			return fmt.Errorf("rangev: multipart part truncated: %w", io.ErrUnexpectedEOF)
		}
	}
	return nil
}

// ScatterMultipart parses a multipart/byteranges body and scatters each
// part's payload directly into the destination buffers as the bytes stream
// past — the allocation-free fast path of the §2.3 vectored read. It never
// materializes part payloads, builds no header maps, and copies through a
// pooled scratch block, so a response carrying hundreds of fragments costs
// O(parts) small header parses instead of O(bytes) of garbage.
//
// Every frame must be covered by exactly one part starting at the frame
// offset (servers echo the requested ranges); parts may arrive in any
// order, and parts matching no frame are drained and ignored.
func ScatterMultipart(body io.Reader, boundary string, frames []Frame, ranges []Range, dsts [][]byte) error {
	pr := newPartReader(body, boundary)
	defer pr.release()
	scratch := bufpool.Get(64 << 10)
	defer bufpool.Put(scratch)
	seen := make([]bool, len(frames))
	covered := 0
	for {
		off, length, _, ok, err := pr.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		fi := findFrame(frames, off)
		if fi < 0 {
			continue
		}
		if length < frames[fi].Len {
			return fmt.Errorf("rangev: no part covers frame [%d,+%d)", frames[fi].Off, frames[fi].Len)
		}
		// Payload past the frame end is drained by next.
		if err := streamScatter(pr, off, frames[fi:fi+1], ranges, dsts, scratch); err != nil {
			return fmt.Errorf("rangev: multipart part truncated: %w", err)
		}
		if !seen[fi] {
			seen[fi] = true
			covered++
		}
	}
	if covered != len(frames) {
		for i, ok := range seen {
			if !ok {
				return fmt.Errorf("rangev: no part covers frame [%d,+%d)", frames[i].Off, frames[i].Len)
			}
		}
	}
	return nil
}

// skipToDelim consumes lines until a boundary delimiter, reporting whether
// it was the closing "--boundary--" form.
func skipToDelim(br *bufio.Reader, delim []byte) (closed bool, err error) {
	for {
		line, err := readTrimmedLine(br)
		if err != nil {
			return false, fmt.Errorf("rangev: multipart: %w", err)
		}
		if !bytes.HasPrefix(line, delim) {
			continue
		}
		rest := line[len(delim):]
		if len(rest) == 0 {
			return false, nil
		}
		if bytes.Equal(rest, []byte("--")) {
			return true, nil
		}
	}
}

// readTrimmedLine reads one line, stripping the terminator and trailing
// transport padding. The returned slice aliases the reader's buffer and is
// valid only until the next read.
func readTrimmedLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			return nil, fmt.Errorf("multipart line exceeds %d bytes", br.Size())
		}
		if err == io.EOF && len(line) > 0 {
			// Final line without a terminator (no epilogue after the close
			// delimiter): still a line.
			return trimLine(line), nil
		}
		return nil, err
	}
	return trimLine(line), nil
}

func trimLine(line []byte) []byte {
	for len(line) > 0 {
		switch line[len(line)-1] {
		case '\n', '\r', ' ', '\t':
			line = line[:len(line)-1]
		default:
			return line
		}
	}
	return line
}

// headerValue matches line against a header name case-insensitively,
// returning the trimmed value bytes.
func headerValue(line []byte, name string) ([]byte, bool) {
	if len(line) <= len(name) || line[len(name)] != ':' {
		return nil, false
	}
	for i := 0; i < len(name); i++ {
		c := line[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		n := name[i]
		if 'A' <= n && n <= 'Z' {
			n += 'a' - 'A'
		}
		if c != n {
			return nil, false
		}
	}
	v := line[len(name)+1:]
	for len(v) > 0 && (v[0] == ' ' || v[0] == '\t') {
		v = v[1:]
	}
	return v, true
}

// findFrame binary-searches the sorted frames for the one starting at off.
func findFrame(frames []Frame, off int64) int {
	i := sort.Search(len(frames), func(i int) bool { return frames[i].Off >= off })
	if i < len(frames) && frames[i].Off == off {
		return i
	}
	return -1
}
