package rangev

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"sort"
	"strings"
	"sync"

	"godavix/internal/bufpool"
)

// Part is one byterange part extracted from a multipart/byteranges body.
type Part struct {
	// Off is the starting offset declared by the part's Content-Range.
	Off int64
	// Data is the part payload.
	Data []byte
	// Total is the resource size declared by Content-Range (-1 if "*").
	Total int64
}

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

// ReadMultipart parses a multipart/byteranges body with mime/multipart,
// returning the parts in stream order. Servers may reorder or coalesce parts
// relative to the request; callers match parts to frames by offset. Clients
// scatter with ScatterMultipart; ReadMultipart, ScatterParts and
// ReleaseParts are the reference its tests compare against.
//
// Part payloads are drawn from the shared buffer pool: callers that finish
// scattering should hand the parts to ReleaseParts so steady-state vector
// reads stay allocation-free. Keeping the data (or not releasing) is safe,
// just slower.
func ReadMultipart(body io.Reader, boundary string) ([]Part, error) {
	mr := multipart.NewReader(body, boundary)
	var parts []Part
	for {
		p, err := mr.NextPart()
		if err == io.EOF {
			return parts, nil
		}
		if err != nil {
			return parts, fmt.Errorf("rangev: multipart: %w", err)
		}
		cr := p.Header.Get("Content-Range")
		off, length, total, err := ParseContentRange(cr)
		if err != nil {
			p.Close()
			return parts, err
		}
		data := bufpool.Get(int(length))
		if _, err := io.ReadFull(p, data); err != nil {
			p.Close()
			bufpool.Put(data)
			return parts, fmt.Errorf("rangev: multipart part truncated: %w", err)
		}
		p.Close()
		parts = append(parts, Part{Off: off, Data: data, Total: total})
	}
}

// ReleaseParts returns every part payload to the buffer pool and clears the
// Data fields. Call once scattering is complete; the parts must not be
// used afterwards.
func ReleaseParts(parts []Part) {
	for i := range parts {
		bufpool.Put(parts[i].Data)
		parts[i].Data = nil
	}
}

// brPool recycles the buffered readers ScatterMultipart parses with, so the
// steady-state vector-read path does not allocate a 4 KiB reader per batch.
var brPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 4096) }}

// ScatterMultipart parses a multipart/byteranges body and scatters each
// part's payload directly into the destination buffers as the bytes stream
// past — the allocation-free fast path of the §2.3 vectored read. Unlike
// ReadMultipart it never materializes part payloads, builds no header maps,
// and copies through a pooled scratch block, so a response carrying
// hundreds of fragments costs O(parts) small header parses instead of
// O(bytes) of garbage.
//
// Every frame must be covered by exactly one part starting at the frame
// offset (servers echo the requested ranges); parts may arrive in any
// order, and parts matching no frame are drained and ignored.
func ScatterMultipart(body io.Reader, boundary string, frames []Frame, ranges []Range, dsts [][]byte) error {
	br := brPool.Get().(*bufio.Reader)
	br.Reset(body)
	defer func() { br.Reset(nil); brPool.Put(br) }()

	scratch := bufpool.Get(64 << 10)
	defer bufpool.Put(scratch)

	delim := []byte("--" + boundary)
	seen := make([]bool, len(frames))
	covered := 0

	// Skip the preamble: everything up to the first delimiter line.
	closed, err := skipToDelim(br, delim)
	if err != nil {
		return err
	}
	for !closed {
		// Part headers: only Content-Range matters; the rest are skipped
		// without building a header map.
		var off, length int64 = -1, -1
		for {
			line, err := readTrimmedLine(br)
			if err != nil {
				return fmt.Errorf("rangev: multipart headers: %w", err)
			}
			if len(line) == 0 {
				break
			}
			if v, ok := headerValue(line, "Content-Range"); ok {
				off, length, _, err = ParseContentRange(string(v))
				if err != nil {
					return err
				}
			}
		}
		if length < 0 {
			return fmt.Errorf("rangev: multipart part missing Content-Range")
		}

		fi := findFrame(frames, off)
		if fi >= 0 && length < frames[fi].Len {
			return fmt.Errorf("rangev: no part covers frame [%d,+%d)", frames[fi].Off, frames[fi].Len)
		}
		// Stream the payload through scratch, copying member overlaps in
		// place; payload matching no frame (or past the frame end) drains.
		consumed := int64(0)
		for consumed < length {
			n := int64(len(scratch))
			if n > length-consumed {
				n = length - consumed
			}
			if _, err := io.ReadFull(br, scratch[:n]); err != nil {
				return fmt.Errorf("rangev: multipart part truncated: %w", err)
			}
			if fi >= 0 {
				scatterChunk(frames[fi], off+consumed, scratch[:n], ranges, dsts)
			}
			consumed += n
		}
		if fi >= 0 && !seen[fi] {
			seen[fi] = true
			covered++
		}
		if closed, err = skipToDelim(br, delim); err != nil {
			return err
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

// ScatterParts distributes multipart parts into the destination buffers of
// the original ranges, using the frame membership computed by Coalesce.
// Each frame must be covered by exactly one part starting at the frame
// offset (servers echo the requested ranges); parts are matched by offset.
func ScatterParts(parts []Part, frames []Frame, ranges []Range, dsts [][]byte) error {
	byOff := make(map[int64]*Part, len(parts))
	for i := range parts {
		byOff[parts[i].Off] = &parts[i]
	}
	for _, f := range frames {
		p, ok := byOff[f.Off]
		if !ok || int64(len(p.Data)) < f.Len {
			return fmt.Errorf("rangev: no part covers frame [%d,+%d)", f.Off, f.Len)
		}
		if err := Scatter(f, p.Off, p.Data, ranges, dsts); err != nil {
			return err
		}
	}
	return nil
}
