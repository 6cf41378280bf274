package rangev

import (
	"fmt"
	"io"
	"mime/multipart"

	"godavix/internal/bufpool"
)

// The mime/multipart reference implementation: the streaming parsers
// (ScatterMultipart, Ends.ReadMultipart) are tested and fuzzed against it.

// Part is one byterange part extracted from a multipart/byteranges body.
type Part struct {
	// Off is the starting offset declared by the part's Content-Range.
	Off int64
	// Data is the part payload.
	Data []byte
	// Total is the resource size declared by Content-Range (-1 if "*").
	Total int64
}

// ReadMultipart parses a multipart/byteranges body with mime/multipart,
// returning the parts in stream order. Part payloads are drawn from the
// shared buffer pool; ReleaseParts returns them.
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
// Data fields.
func ReleaseParts(parts []Part) {
	for i := range parts {
		bufpool.Put(parts[i].Data)
		parts[i].Data = nil
	}
}

// ScatterParts distributes multipart parts into the destination buffers of
// the original ranges, using the frame membership computed by Coalesce.
// Each frame must be covered by exactly one part starting at the frame
// offset; parts are matched by offset.
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

// Scatter copies the bytes of a fetched frame (frame data spanning
// [frameOff, frameOff+len(data))) into the member ranges' destination
// buffers. dsts[i] corresponds to ranges[i] and must be at least
// ranges[i].Len long.
func Scatter(frame Frame, frameOff int64, data []byte, ranges []Range, dsts [][]byte) error {
	for _, m := range frame.Members {
		r := ranges[m]
		start := r.Off - frameOff
		if start < 0 || start+r.Len > int64(len(data)) {
			return fmt.Errorf("rangev: frame [%d,+%d) does not cover member range [%d,+%d)",
				frameOff, len(data), r.Off, r.Len)
		}
		copy(dsts[m][:r.Len], data[start:start+r.Len])
	}
	return nil
}
