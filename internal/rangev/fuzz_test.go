package rangev

import (
	"bytes"
	"fmt"
	"math"
	"mime/multipart"
	"net/textproto"
	"slices"
	"strconv"
	"testing"
)

// fuzzByte is byte i of every fuzzed object: parts can then sit anywhere
// up to MaxInt64 with no blob behind them, and any byte a parser hands back
// can be checked against its offset.
func fuzzByte(i int64) byte { return byte(uint64(i)*0x9E3779B97F4A7C15>>56) ^ byte(i) }

func fuzzBytes(r Range) []byte {
	b := make([]byte, r.Len)
	for i := range b {
		b[i] = fuzzByte(r.Off + int64(i))
	}
	return b
}

// fuzzBody frames parts as a server's multipart/byteranges answer, each
// Content-Range naming total (the decimal size, "*", or anything else),
// and cuts the last cut bytes off.
func fuzzBody(t *testing.T, parts []Range, total string, cut int) ([]byte, string) {
	var buf bytes.Buffer
	w := multipart.NewWriter(&buf)
	for _, p := range parts {
		h := textproto.MIMEHeader{}
		h.Set("Content-Type", "application/octet-stream")
		h.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%s", p.Off, p.End()-1, total))
		pw, err := w.CreatePart(h)
		if err != nil {
			t.Fatal(err)
		}
		pw.Write(fuzzBytes(p))
	}
	w.Close()
	body := buf.Bytes()
	if cut == 1 {
		// Half the final line break: mime/multipart refuses a closing
		// delimiter ending in a bare CR, the streaming parser strips it
		// like any line end, and no data is lost either way. Drop it whole.
		cut = 2
	}
	return body[:len(body)-min(cut, len(body))], w.Boundary()
}

// cutShort corrects the oracle on a body cut into its closing delimiter:
// mime/multipart takes a body that ends inside a part's headers for a
// clean end (textproto reports io.EOF), where the parts it promised are
// missing. Only the final line break may go.
func cutShort(oerr error, cut int) error {
	if oerr == nil && cut > len("\r\n") {
		return fmt.Errorf("body cut %d bytes short", cut)
	}
	return oerr
}

// Part layout mutations, applied to the parts a faithful server would
// send.
const (
	mutNone     = iota
	mutReverse  // parts in reverse order
	mutCoalesce // one part spanning them all
	mutOverlap  // every part grown by 5 bytes, overlapping the next
	mutShort    // the last part one byte short
	mutExtra    // an extra part no one asked for
	mutLayouts
)

func mutate(parts []Range, m uint8, size int64) []Range {
	parts = slices.Clone(parts)
	switch m % mutLayouts {
	case mutReverse:
		slices.Reverse(parts)
	case mutCoalesce:
		parts = []Range{{parts[0].Off, parts[len(parts)-1].End() - parts[0].Off}}
	case mutOverlap:
		for i := range parts {
			parts[i].Len = min(parts[i].Len+5, size-parts[i].Off)
		}
	case mutShort:
		if p := &parts[len(parts)-1]; p.Len > 1 {
			p.Len--
		}
	case mutExtra:
		parts = append(parts, Range{size / 2, min(3, size-size/2)})
	}
	return parts
}

// Totals a part's Content-Range may name.
const (
	totalExact = iota
	totalStar
	totalOff // one more than the size
	totalMax // MaxInt64
	totalModes
)

func totalString(mode uint8, size int64) string {
	switch mode % totalModes {
	case totalStar:
		return "*"
	case totalOff:
		return strconv.FormatInt(size+1, 10)
	case totalMax:
		return strconv.FormatInt(math.MaxInt64, 10)
	}
	return strconv.FormatInt(size, 10)
}

// FuzzScatterMultipart holds the streaming multipart parser to the
// mime/multipart oracle (ReadMultipart) on bodies built from a known
// object, in its two uses. Frame scatter: a vectored read's coalesced
// frames, served with the parts mutated, scatter exactly what ScatterParts
// scatters, and fail exactly when it fails. Ends: the answer to an ends
// request, whose tail offset is known only from the Content-Range total,
// gives the size and resident bytes whenever the oracle parses parts that
// agree on a total; a lookup that hits returns the object's bytes, and a
// faithful answer leaves both windows resident.
func FuzzScatterMultipart(f *testing.F) {
	layout := []byte{7, 3, 40, 9, 200, 30, 90, 1}
	f.Add(false, int64(1000), layout, uint8(mutNone), uint8(totalExact), uint16(0))
	f.Add(false, int64(1000), layout, uint8(mutCoalesce), uint8(totalExact), uint16(0))
	f.Add(false, int64(1000), layout, uint8(mutReverse), uint8(totalStar), uint16(0))
	f.Add(false, int64(1000), layout, uint8(mutOverlap), uint8(totalExact), uint16(0))
	f.Add(false, int64(1000), layout, uint8(mutShort), uint8(totalExact), uint16(0))
	f.Add(false, int64(1000), layout, uint8(mutNone), uint8(totalExact), uint16(40))
	f.Add(true, int64(1000), layout, uint8(mutNone), uint8(totalExact), uint16(0))
	f.Add(true, int64(40), layout, uint8(mutNone), uint8(totalExact), uint16(0))
	f.Add(true, int64(1000), layout, uint8(mutCoalesce), uint8(totalExact), uint16(0))
	f.Add(true, int64(1000), layout, uint8(mutReverse), uint8(totalExact), uint16(0))
	f.Add(true, int64(1000), layout, uint8(mutOverlap), uint8(totalExact), uint16(0))
	f.Add(true, int64(1000), layout, uint8(mutNone), uint8(totalStar), uint16(0))
	f.Add(true, int64(1000), layout, uint8(mutNone), uint8(totalExact), uint16(30))
	f.Add(true, int64(math.MaxInt64), layout, uint8(mutNone), uint8(totalExact), uint16(0))
	f.Add(true, int64(math.MaxInt64-1), layout, uint8(mutReverse), uint8(totalMax), uint16(0))
	f.Fuzz(func(t *testing.T, ends bool, size int64, layout []byte, mut, total uint8, cut uint16) {
		if ends {
			fuzzEnds(t, size, mut, total, int(cut))
		} else {
			fuzzScatter(t, size, layout, mut, total, int(cut))
		}
	})
}

func fuzzScatter(t *testing.T, size int64, layout []byte, mut, total uint8, cut int) {
	size = 1 + (size&math.MaxInt64)%4096
	var ranges []Range
	for i := 0; i+1 < len(layout) && len(ranges) < 32; i += 2 {
		off := int64(layout[i]) * 37 % size
		ranges = append(ranges, Range{off, min(1+int64(layout[i+1])%64, size-off)})
	}
	if len(ranges) == 0 {
		return
	}
	frames := Coalesce(ranges, int64(layout[0]%32))
	spans := make([]Range, len(frames))
	for i, fr := range frames {
		spans[i] = Range{fr.Off, fr.Len}
	}
	body, boundary := fuzzBody(t, mutate(spans, mut, size), totalString(total, size), cut)

	got := make([][]byte, len(ranges))
	want := make([][]byte, len(ranges))
	for i, r := range ranges {
		got[i], want[i] = make([]byte, r.Len), make([]byte, r.Len)
	}
	err := ScatterMultipart(bytes.NewReader(body), boundary, frames, ranges, got)
	parts, oerr := ReadMultipart(bytes.NewReader(body), boundary)
	if oerr == nil {
		oerr = ScatterParts(parts, frames, ranges, want)
	}
	ReleaseParts(parts)
	oerr = cutShort(oerr, cut)
	if (err == nil) != (oerr == nil) {
		t.Fatalf("ScatterMultipart: %v; oracle: %v", err, oerr)
	}
	if err != nil {
		return
	}
	for i, r := range ranges {
		if truth := fuzzBytes(r); !bytes.Equal(got[i], truth) || !bytes.Equal(want[i], truth) {
			t.Fatalf("range %v: scattered %x, oracle %x, object %x", r, got[i], want[i], truth)
		}
	}
}

// The fuzzed ends hold an object's first 16 and last 48 bytes.
const fuzzHead, fuzzTail = 16, 48

func fuzzEnds(t *testing.T, size int64, mut, total uint8, cut int) {
	if size < 1 {
		size = 1 + (size&math.MaxInt64)%(4*(fuzzHead+fuzzTail))
	}
	// What a faithful server answers to "bytes=0-15,-48"; the gateway
	// sends an object that small whole with a 200, which is not parsed
	// here.
	parts := []Range{{0, size}}
	if size > fuzzHead+fuzzTail {
		parts = []Range{{0, fuzzHead}, {size - fuzzTail, fuzzTail}}
	}
	if mut%mutLayouts == mutCoalesce && size > 1<<20 {
		return // one part of the whole object: too large to build
	}
	parts = mutate(parts, mut, size)
	body, boundary := fuzzBody(t, parts, totalString(total, size), cut)

	e := NewEnds(make([]byte, fuzzHead+fuzzTail), fuzzHead)
	err := e.ReadMultipart(bytes.NewReader(body), boundary)
	oparts, oerr := ReadMultipart(bytes.NewReader(body), boundary)
	defer ReleaseParts(oparts)
	// The oracle's parse, judged the way Ends judges it: every part must
	// name the same known total and lie inside it.
	if oerr == nil {
		for _, p := range oparts {
			if p.Total < 0 || p.Total != oparts[0].Total || p.Off > p.Total-int64(len(p.Data)) {
				oerr = fmt.Errorf("part [%d,+%d) of %d", p.Off, len(p.Data), p.Total)
			}
		}
	}
	oerr = cutShort(oerr, cut)
	if (err == nil) != (oerr == nil) {
		t.Fatalf("Ends.ReadMultipart: %v; oracle: %v", err, oerr)
	}
	if err != nil {
		return
	}
	if len(oparts) > 0 && e.Size != oparts[0].Total {
		t.Fatalf("size %d, oracle total %d", e.Size, oparts[0].Total)
	}
	for i, w := range e.windows() {
		for off := w.Off; off < w.End(); off++ {
			for n := int64(1); n <= w.End()-off; n++ {
				if b := e.Lookup(off, n); b != nil && !bytes.Equal(b, fuzzBytes(Range{off, n})) {
					t.Fatalf("window %d: Lookup(%d, %d) = %x, object %x", i, off, n, b, fuzzBytes(Range{off, n}))
				}
			}
		}
		faithful := cut == 0 && total%totalModes == totalExact && mut%mutLayouts != mutShort
		if w.Len > 0 && faithful && e.Lookup(w.Off, w.Len) == nil {
			t.Fatalf("window %d %v not resident after a faithful answer", i, w)
		}
	}
}
