package rangev

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"mime/multipart"
	"net/textproto"
	"sort"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	if err := Validate(nil); err != ErrNoRanges {
		t.Fatalf("err = %v", err)
	}
	if err := Validate([]Range{{Off: -1, Len: 5}}); err == nil {
		t.Fatal("negative offset accepted")
	}
	if err := Validate([]Range{{Off: 0, Len: 0}}); err == nil {
		t.Fatal("zero length accepted")
	}
	if err := Validate([]Range{{Off: 0, Len: 1}}); err != nil {
		t.Fatalf("valid range rejected: %v", err)
	}
}

func TestCoalesceMergesTouching(t *testing.T) {
	frames := Coalesce([]Range{{0, 10}, {10, 10}, {30, 5}}, 0)
	if len(frames) != 2 {
		t.Fatalf("frames = %+v", frames)
	}
	if frames[0].Off != 0 || frames[0].Len != 20 {
		t.Fatalf("frame0 = %+v", frames[0])
	}
	if len(frames[0].Members) != 2 || len(frames[1].Members) != 1 {
		t.Fatalf("memberships wrong: %+v", frames)
	}
}

func TestCoalesceGapSieving(t *testing.T) {
	ranges := []Range{{0, 10}, {15, 10}} // 5-byte hole
	if got := Coalesce(ranges, 0); len(got) != 2 {
		t.Fatalf("gap=0: %+v", got)
	}
	got := Coalesce(ranges, 5)
	if len(got) != 1 || got[0].Len != 25 {
		t.Fatalf("gap=5: %+v", got)
	}
	if TotalBytes(got) != 25 {
		t.Fatalf("TotalBytes = %d", TotalBytes(got))
	}
}

func TestCoalesceUnsortedOverlapping(t *testing.T) {
	frames := Coalesce([]Range{{50, 10}, {0, 10}, {55, 20}, {5, 10}}, 0)
	if len(frames) != 2 {
		t.Fatalf("frames = %+v", frames)
	}
	if frames[0].Off != 0 || frames[0].End() != 15 {
		t.Fatalf("frame0 = %+v", frames[0])
	}
	if frames[1].Off != 50 || frames[1].End() != 75 {
		t.Fatalf("frame1 = %+v", frames[1])
	}
}

// TestCoalesceProperty: frames are sorted, disjoint, each member range is
// fully contained in its frame, and every input range is a member of
// exactly one frame.
func TestCoalesceProperty(t *testing.T) {
	prop := func(seed int64, n uint8, gapSmall uint8) bool {
		r := rand.New(rand.NewSource(seed))
		count := int(n%32) + 1
		gap := int64(gapSmall % 16)
		ranges := make([]Range, count)
		for i := range ranges {
			ranges[i] = Range{Off: r.Int63n(1000), Len: r.Int63n(50) + 1}
		}
		frames := Coalesce(ranges, gap)

		seen := make(map[int]int)
		for fi, f := range frames {
			if fi > 0 && frames[fi-1].End()+gap > f.Off {
				return false // frames must be separated by more than gap
			}
			for _, m := range f.Members {
				seen[m]++
				rg := ranges[m]
				if rg.Off < f.Off || rg.End() > f.End() {
					return false
				}
			}
		}
		if len(seen) != count {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeHeader(t *testing.T) {
	frames := Coalesce([]Range{{0, 100}, {200, 50}}, 0)
	if got := RangeHeader(frames); got != "bytes=0-99,200-249" {
		t.Fatalf("header = %q", got)
	}
	// The single-range and Content-Range renderers agree with fmt at the
	// int64 extremes too.
	for _, r := range []Range{{0, 1}, {100, 512}, {math.MaxInt64 - 9, 10}} {
		if got, want := SingleRangeHeader(r.Off, r.Len), fmt.Sprintf("bytes=%d-%d", r.Off, r.End()-1); got != want {
			t.Errorf("SingleRangeHeader = %q, want %q", got, want)
		}
		if got, want := RangeHeader([]Frame{{Off: r.Off, Len: r.Len}}), fmt.Sprintf("bytes=%d-%d", r.Off, r.End()-1); got != want {
			t.Errorf("RangeHeader = %q, want %q", got, want)
		}
		got := string(AppendContentRange([]byte("x"), r.Off, r.Len, math.MaxInt64))
		if want := fmt.Sprintf("xbytes %d-%d/%d", r.Off, r.End()-1, int64(math.MaxInt64)); got != want {
			t.Errorf("AppendContentRange = %q, want %q", got, want)
		}
	}
}

func TestParseContentRange(t *testing.T) {
	off, length, total, err := ParseContentRange("bytes 200-249/700")
	if err != nil || off != 200 || length != 50 || total != 700 {
		t.Fatalf("got %d %d %d %v", off, length, total, err)
	}
	_, _, total, err = ParseContentRange("bytes 0-0/*")
	if err != nil || total != -1 {
		t.Fatalf("star total: %d %v", total, err)
	}
	off, length, total, err = ParseContentRange("bytes 9223372036854775805-9223372036854775806/9223372036854775807")
	if err != nil || off != math.MaxInt64-2 || length != 2 || total != math.MaxInt64 {
		t.Fatalf("near MaxInt64: %d %d %d %v", off, length, total, err)
	}
	for _, bad := range []string{
		"", "bytes", "bytes a-b/10", "bytes 5-2/10", "bytes 0-1/x", "items 0-1/10",
		// Ranges reaching the total, and one whose length overflows.
		"bytes 0-10/10", "bytes 12-15/10", "bytes 0-9223372036854775807/*",
		"bytes 0-9223372036854775807/9223372036854775807",
	} {
		if _, _, _, err := ParseContentRange(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestScatter(t *testing.T) {
	data := []byte("0123456789")
	ranges := []Range{{Off: 102, Len: 3}, {Off: 106, Len: 2}}
	frame := Frame{Off: 100, Len: 10, Members: []int{0, 1}}
	dsts := [][]byte{make([]byte, 3), make([]byte, 2)}
	if err := Scatter(frame, 100, data, ranges, dsts); err != nil {
		t.Fatal(err)
	}
	if string(dsts[0]) != "234" || string(dsts[1]) != "67" {
		t.Fatalf("dsts = %q %q", dsts[0], dsts[1])
	}
}

func TestScatterOutOfCover(t *testing.T) {
	frame := Frame{Off: 0, Len: 5, Members: []int{0}}
	err := Scatter(frame, 0, []byte("abc"), []Range{{Off: 2, Len: 5}}, [][]byte{make([]byte, 5)})
	if err == nil {
		t.Fatal("expected coverage error")
	}
}

// buildMultipart emits a multipart/byteranges body the way an HTTP server
// would, using stdlib multipart for interop.
func buildMultipart(t *testing.T, parts []Part, total int64) (body []byte, contentType string) {
	t.Helper()
	var buf bytes.Buffer
	w := multipart.NewWriter(&buf)
	for _, p := range parts {
		h := textproto.MIMEHeader{}
		h.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", p.Off, p.Off+int64(len(p.Data))-1, total))
		pw, err := w.CreatePart(h)
		if err != nil {
			t.Fatal(err)
		}
		pw.Write(p.Data)
	}
	w.Close()
	return buf.Bytes(), "multipart/byteranges; boundary=" + w.Boundary()
}

func TestIsMultipartByteranges(t *testing.T) {
	if _, ok := IsMultipartByteranges("text/plain"); ok {
		t.Fatal("text/plain accepted")
	}
	if _, ok := IsMultipartByteranges("multipart/byteranges"); ok {
		t.Fatal("missing boundary accepted")
	}
	b, ok := IsMultipartByteranges(`multipart/byteranges; boundary=XYZ`)
	if !ok || b != "XYZ" {
		t.Fatalf("boundary = %q ok=%v", b, ok)
	}
}

func TestReadMultipart(t *testing.T) {
	want := []Part{
		{Off: 0, Data: []byte("aaaa")},
		{Off: 100, Data: []byte("bb")},
	}
	body, ct := buildMultipart(t, want, 700)
	boundary, ok := IsMultipartByteranges(ct)
	if !ok {
		t.Fatal("content type not recognized")
	}
	got, err := ReadMultipart(bytes.NewReader(body), boundary)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Off != 0 || string(got[0].Data) != "aaaa" ||
		got[1].Off != 100 || string(got[1].Data) != "bb" || got[1].Total != 700 {
		t.Fatalf("parts = %+v", got)
	}
}

// TestVectoredRoundTrip is the end-to-end §2.3 property: for arbitrary
// fragment sets over a random blob, coalesce → serve multipart → scatter
// reproduces exactly the requested bytes.
func TestVectoredRoundTrip(t *testing.T) {
	prop := func(seed int64, n uint8, gapSmall uint8) bool {
		r := rand.New(rand.NewSource(seed))
		blob := make([]byte, 4096)
		r.Read(blob)
		count := int(n%24) + 1
		gap := int64(gapSmall % 64)

		ranges := make([]Range, count)
		for i := range ranges {
			off := r.Int63n(int64(len(blob) - 64))
			ranges[i] = Range{Off: off, Len: r.Int63n(63) + 1}
		}
		frames := Coalesce(ranges, gap)

		// Server side: one part per frame, shuffled to simulate reordering.
		parts := make([]Part, len(frames))
		for i, f := range frames {
			parts[i] = Part{Off: f.Off, Data: blob[f.Off:f.End()]}
		}
		r.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })

		dsts := make([][]byte, count)
		for i := range dsts {
			dsts[i] = make([]byte, ranges[i].Len)
		}
		if err := ScatterParts(parts, frames, ranges, dsts); err != nil {
			return false
		}
		for i, d := range dsts {
			if !bytes.Equal(d, blob[ranges[i].Off:ranges[i].End()]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScatterPartsMissingFrame(t *testing.T) {
	frames := []Frame{{Off: 0, Len: 4, Members: []int{0}}}
	ranges := []Range{{Off: 0, Len: 4}}
	err := ScatterParts([]Part{{Off: 50, Data: []byte("xxxx")}}, frames, ranges, [][]byte{make([]byte, 4)})
	if err == nil {
		t.Fatal("expected missing-frame error")
	}
}

func TestCoalesceDeterministic(t *testing.T) {
	ranges := []Range{{10, 5}, {0, 5}, {20, 5}}
	a := Coalesce(ranges, 100)
	b := Coalesce(ranges, 100)
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("a=%+v b=%+v", a, b)
	}
	if !sort.IntsAreSorted(a[0].Members) {
		// Members follow sorted range order; with these inputs that is 1,0,2.
		want := []int{1, 0, 2}
		for i, m := range a[0].Members {
			if m != want[i] {
				t.Fatalf("members = %v", a[0].Members)
			}
		}
	}
}

// TotalBytes sums the lengths of the frames (bytes that will cross the
// network), used to bound sieving waste.
func TotalBytes(frames []Frame) int64 {
	var n int64
	for _, f := range frames {
		n += f.Len
	}
	return n
}
