package rangev

import (
	"bytes"
	"fmt"
	"math/rand"
	"mime/multipart"
	"net/textproto"
	"strings"
	"testing"
	"testing/quick"
)

// serveFrames builds a multipart/byteranges body carrying one part per
// frame (optionally shuffled), the way an HTTP server answers a multi-range
// request.
func serveFrames(t *testing.T, blob []byte, frames []Frame, shuffle *rand.Rand) (body []byte, boundary string) {
	t.Helper()
	parts := make([]Part, len(frames))
	for i, f := range frames {
		parts[i] = Part{Off: f.Off, Data: blob[f.Off:f.End()]}
	}
	if shuffle != nil {
		shuffle.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	}
	var buf bytes.Buffer
	w := multipart.NewWriter(&buf)
	for _, p := range parts {
		h := textproto.MIMEHeader{}
		h.Set("Content-Type", "application/octet-stream")
		h.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", p.Off, p.Off+int64(len(p.Data))-1, len(blob)))
		pw, err := w.CreatePart(h)
		if err != nil {
			t.Fatal(err)
		}
		pw.Write(p.Data)
	}
	w.Close()
	return buf.Bytes(), w.Boundary()
}

// TestScatterMultipartRoundTrip is the §2.3 property for the streaming
// parser: arbitrary fragment sets, coalesced, served shuffled, scatter back
// byte-exact.
func TestScatterMultipartRoundTrip(t *testing.T) {
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
		body, boundary := serveFrames(t, blob, frames, r)

		dsts := make([][]byte, count)
		for i := range dsts {
			dsts[i] = make([]byte, ranges[i].Len)
		}
		if err := ScatterMultipart(bytes.NewReader(body), boundary, frames, ranges, dsts); err != nil {
			t.Logf("scatter: %v", err)
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

func TestScatterMultipartMissingFrame(t *testing.T) {
	blob := []byte("0123456789")
	frames := []Frame{
		{Off: 0, Len: 4, Members: []int{0}},
		{Off: 6, Len: 2, Members: []int{1}},
	}
	ranges := []Range{{Off: 0, Len: 4}, {Off: 6, Len: 2}}
	// Server answers only the first frame.
	body, boundary := serveFrames(t, blob, frames[:1], nil)
	dsts := [][]byte{make([]byte, 4), make([]byte, 2)}
	err := ScatterMultipart(bytes.NewReader(body), boundary, frames, ranges, dsts)
	if err == nil || !strings.Contains(err.Error(), "no part covers frame [6,+2)") {
		t.Fatalf("err = %v", err)
	}
}

func TestScatterMultipartShortPart(t *testing.T) {
	blob := []byte("0123456789")
	// Part declares [0,+2) but the frame needs [0,+4).
	served := []Frame{{Off: 0, Len: 2}}
	body, boundary := serveFrames(t, blob, served, nil)
	frames := []Frame{{Off: 0, Len: 4, Members: []int{0}}}
	ranges := []Range{{Off: 0, Len: 4}}
	err := ScatterMultipart(bytes.NewReader(body), boundary, frames, ranges, [][]byte{make([]byte, 4)})
	if err == nil {
		t.Fatal("expected short-part error")
	}
}

func TestScatterMultipartIgnoresUnrequestedPart(t *testing.T) {
	blob := []byte("abcdefghij")
	served := []Frame{
		{Off: 0, Len: 3},
		{Off: 8, Len: 2}, // not requested
	}
	body, boundary := serveFrames(t, blob, served, nil)
	frames := []Frame{{Off: 0, Len: 3, Members: []int{0}}}
	ranges := []Range{{Off: 0, Len: 3}}
	dst := make([]byte, 3)
	if err := ScatterMultipart(bytes.NewReader(body), boundary, frames, ranges, [][]byte{dst}); err != nil {
		t.Fatal(err)
	}
	if string(dst) != "abc" {
		t.Fatalf("dst = %q", dst)
	}
}

func TestScatterMultipartTruncatedBody(t *testing.T) {
	blob := make([]byte, 256)
	frames := []Frame{{Off: 0, Len: 200, Members: []int{0}}}
	ranges := []Range{{Off: 0, Len: 200}}
	body, boundary := serveFrames(t, blob, frames, nil)
	err := ScatterMultipart(bytes.NewReader(body[:len(body)/2]), boundary, frames, ranges, [][]byte{make([]byte, 200)})
	if err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestScatterMultipartMissingContentRange(t *testing.T) {
	var buf bytes.Buffer
	w := multipart.NewWriter(&buf)
	pw, _ := w.CreatePart(textproto.MIMEHeader{"Content-Type": {"text/plain"}})
	pw.Write([]byte("xx"))
	w.Close()
	frames := []Frame{{Off: 0, Len: 2, Members: []int{0}}}
	ranges := []Range{{Off: 0, Len: 2}}
	err := ScatterMultipart(&buf, w.Boundary(), frames, ranges, [][]byte{make([]byte, 2)})
	if err == nil || !strings.Contains(err.Error(), "Content-Range") {
		t.Fatalf("err = %v", err)
	}
}

// TestStreamScatterRoundTrip checks the single-stream scatter (206 single
// part / 200 fallback) against a sliding chunk boundary: member copies must
// be byte-exact regardless of how the reader fragments the body.
func TestStreamScatterRoundTrip(t *testing.T) {
	blob := make([]byte, 300<<10) // spans multiple 64 KiB scratch chunks
	rand.New(rand.NewSource(9)).Read(blob)
	ranges := []Range{
		{Off: 10, Len: 100},
		{Off: 64<<10 - 50, Len: 200}, // straddles a scratch boundary
		{Off: 128 << 10, Len: 64 << 10},
		{Off: 290 << 10, Len: 512},
	}
	frames := Coalesce(ranges, 0)
	dsts := make([][]byte, len(ranges))
	for i := range dsts {
		dsts[i] = make([]byte, ranges[i].Len)
	}
	// one-byte-at-a-time reader stresses partial chunk arithmetic
	if err := StreamScatter(iotestOneByte{bytes.NewReader(blob)}, 0, frames, ranges, dsts); err != nil {
		t.Fatal(err)
	}
	for i, d := range dsts {
		if !bytes.Equal(d, blob[ranges[i].Off:ranges[i].End()]) {
			t.Fatalf("range %d mismatch", i)
		}
	}
}

func TestStreamScatterOffsetBase(t *testing.T) {
	blob := []byte("..abcdef..")
	// Body starts at absolute offset 100; range wants [102,+4) = "cdef"...
	// actually bytes at body indices 4..8.
	ranges := []Range{{Off: 104, Len: 4}}
	frames := Coalesce(ranges, 0)
	dst := make([]byte, 4)
	if err := StreamScatter(bytes.NewReader(blob), 100, frames, ranges, [][]byte{dst}); err != nil {
		t.Fatal(err)
	}
	if string(dst) != "cdef" {
		t.Fatalf("dst = %q", dst)
	}
}

func TestStreamScatterTruncated(t *testing.T) {
	ranges := []Range{{Off: 0, Len: 10}}
	frames := Coalesce(ranges, 0)
	err := StreamScatter(strings.NewReader("12345"), 0, frames, ranges, [][]byte{make([]byte, 10)})
	if err == nil {
		t.Fatal("expected truncation error")
	}
}

type iotestOneByte struct{ r *bytes.Reader }

func (o iotestOneByte) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}

// TestVectorPathAllocsDrop pins the ISSUE-2 acceptance bar: the pooled
// streaming scatter must cost less than half the allocations of the seed's
// materialize-then-scatter path on a steady-state multi-range response.
func TestVectorPathAllocsDrop(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation count: CI runs it without -race, in the alloc budgets step")
	}
	blob := make([]byte, 1<<20)
	rand.New(rand.NewSource(4)).Read(blob)
	const k = 128
	ranges := make([]Range, k)
	for i := range ranges {
		ranges[i] = Range{Off: int64(i) * 8192, Len: 512}
	}
	frames := Coalesce(ranges, 0)
	var tt testing.T
	body, boundary := serveFrames(&tt, blob, frames, nil)
	dsts := make([][]byte, k)
	for i := range dsts {
		dsts[i] = make([]byte, 512)
	}

	streaming := testing.AllocsPerRun(20, func() {
		if err := ScatterMultipart(bytes.NewReader(body), boundary, frames, ranges, dsts); err != nil {
			t.Fatal(err)
		}
	})
	// Seed path: parse every part into a fresh buffer, then scatter. The
	// parts are never returned, so the pool drains after the first run and
	// every later part is a fresh allocation, as before pooling.
	seed := testing.AllocsPerRun(20, func() {
		parts, err := ReadMultipart(bytes.NewReader(body), boundary)
		if err != nil {
			t.Fatal(err)
		}
		if err := ScatterParts(parts, frames, ranges, dsts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/op: streaming=%.1f seed=%.1f (%.0f%% drop)", streaming, seed, 100*(1-streaming/seed))
	if streaming > seed/2 {
		t.Fatalf("streaming scatter %.1f allocs/op not ≤ half of seed %.1f", streaming, seed)
	}
}

func BenchmarkScatterMultipart(b *testing.B) {
	blob := make([]byte, 1<<20)
	rand.New(rand.NewSource(4)).Read(blob)
	const k = 128
	ranges := make([]Range, k)
	for i := range ranges {
		ranges[i] = Range{Off: int64(i) * 8192, Len: 512}
	}
	frames := Coalesce(ranges, 0)
	parts := make([]Part, len(frames))
	for i, f := range frames {
		parts[i] = Part{Off: f.Off, Data: blob[f.Off:f.End()]}
	}
	var buf bytes.Buffer
	w := multipart.NewWriter(&buf)
	for _, p := range parts {
		h := textproto.MIMEHeader{}
		h.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", p.Off, p.Off+int64(len(p.Data))-1, len(blob)))
		pw, _ := w.CreatePart(h)
		pw.Write(p.Data)
	}
	w.Close()
	body := buf.Bytes()
	dsts := make([][]byte, k)
	for i := range dsts {
		dsts[i] = make([]byte, 512)
	}
	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if err := ScatterMultipart(bytes.NewReader(body), w.Boundary(), frames, ranges, dsts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("materialized", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			parts, err := ReadMultipart(bytes.NewReader(body), w.Boundary())
			if err != nil {
				b.Fatal(err)
			}
			if err := ScatterParts(parts, frames, ranges, dsts); err != nil {
				b.Fatal(err)
			}
			ReleaseParts(parts)
		}
	})
}
