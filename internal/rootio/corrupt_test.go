package rootio

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// TestCorruptBasketDetected: bit flips inside a compressed basket must
// surface as errors, never panics or silent bad data.
func TestCorruptBasketDetected(t *testing.T) {
	events := randomEvents(30, 200, 2, 64)
	img := buildFile(t, []string{"a", "b"}, events, WriterOptions{EventsPerBasket: 50})

	r, err := OpenReader(BytesSource(img))
	if err != nil {
		t.Fatal(err)
	}
	// Locate the first basket and flip bytes in its middle.
	b := r.Index().Branches[0].Baskets[0]
	for i := int64(2); i < b.CompressedSize-2 && i < 32; i++ {
		img[b.Offset+i] ^= 0xff
	}
	r2, err := OpenReader(BytesSource(img))
	if err != nil {
		t.Fatal(err) // index and trailer untouched
	}
	if _, err := r2.ReadEvent(0, []int{0}); err == nil {
		t.Fatal("corrupted basket read succeeded")
	}
	// Other branches remain readable.
	if _, err := r2.ReadEvent(0, []int{1}); err != nil {
		t.Fatalf("clean branch unreadable: %v", err)
	}
}

// TestCorruptIndexDetected: damage in the index area must fail OpenReader.
func TestCorruptIndexDetected(t *testing.T) {
	events := randomEvents(31, 100, 1, 32)
	img := buildFile(t, []string{"a"}, events, WriterOptions{EventsPerBasket: 25})
	// The index sits between the last basket and the trailer. Zero a byte
	// in the branch-count field (start of index).
	// Recover index offset from the trailer.
	idxOff := int64(0)
	for i := 0; i < 8; i++ {
		idxOff = idxOff<<8 | int64(img[len(img)-16+i])
	}
	img[idxOff] = 0xff
	img[idxOff+1] = 0xff
	img[idxOff+2] = 0xff
	img[idxOff+3] = 0xff
	if _, err := OpenReader(BytesSource(img)); err == nil {
		t.Fatal("corrupted index accepted")
	}
}

// TestTruncatedFileDetected: cutting the file mid-basket breaks the
// trailer and must be rejected at open.
func TestTruncatedFileDetected(t *testing.T) {
	events := randomEvents(32, 100, 1, 32)
	img := buildFile(t, []string{"a"}, events, WriterOptions{})
	if _, err := OpenReader(BytesSource(img[:len(img)/2])); err == nil {
		t.Fatal("truncated file accepted")
	}
}

// TestBasketSizeMismatchDetected: an index lying about the uncompressed
// size must error at decode.
func TestBasketSizeMismatchDetected(t *testing.T) {
	events := randomEvents(33, 100, 1, 32)
	img := buildFile(t, []string{"a"}, events, WriterOptions{EventsPerBasket: 50})
	r, err := OpenReader(BytesSource(img))
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with the in-memory index: double the uncompressed size.
	r.Index().Branches[0].Baskets[0].UncompressedSize *= 2
	if _, err := r.ReadEvent(0, []int{0}); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

// replaceBasket returns a copy of img in which one basket's compressed
// blob is blob: later baskets shift, the index follows, and the basket's
// UncompressedSize and NumEvents stay what the writer recorded.
func replaceBasket(t *testing.T, img []byte, branch, basket int, blob []byte) []byte {
	t.Helper()
	r, err := OpenReader(BytesSource(img))
	if err != nil {
		t.Fatal(err)
	}
	idx := r.Index()
	old := idx.Branches[branch].Baskets[basket]
	shift := int64(len(blob)) - old.CompressedSize
	idxOff := int64(binary.BigEndian.Uint64(img[len(img)-trailerLen:]))
	for bi := range idx.Branches {
		for bk := range idx.Branches[bi].Baskets {
			if b := &idx.Branches[bi].Baskets[bk]; b.Offset > old.Offset {
				b.Offset += shift
			}
		}
	}
	idx.Branches[branch].Baskets[basket].CompressedSize = int64(len(blob))

	out := append([]byte(nil), img[:old.Offset]...)
	out = append(out, blob...)
	out = append(out, img[old.Offset+old.CompressedSize:idxOff]...)
	enc := encodeIndex(idx)
	var tr [trailerLen]byte
	binary.BigEndian.PutUint64(tr[0:8], uint64(idxOff+shift))
	binary.BigEndian.PutUint32(tr[8:12], uint32(len(enc)))
	copy(tr[12:16], magicTail)
	return append(append(out, enc...), tr[:]...)
}

// TestLateBasketDamageDetected: damage the decompressor itself cannot see —
// a flipped adler32 trailer, a flipped bit in the literally-stored tail of
// the deflate stream, a stream that runs on past the size the index
// records — must come back as ErrCorrupt, from the on-demand reader and
// from a pipelined TreeCache alike, and never as wrong payload bytes.
func TestLateBasketDamageDetected(t *testing.T) {
	events := randomEvents(30, 200, 2, 64)
	img := buildFile(t, []string{"a", "b"}, events, WriterOptions{EventsPerBasket: 50})
	r, err := OpenReader(BytesSource(img))
	if err != nil {
		t.Fatal(err)
	}
	b := r.Index().Branches[0].Baskets[0]
	blob := img[b.Offset : b.Offset+b.CompressedSize]

	cases := map[string][]byte{}
	flipped := func(bit int) []byte {
		c := append([]byte(nil), blob...)
		c[bit/8] ^= 1 << (bit % 8)
		return c
	}
	cases["trailer flip"] = flipped(len(blob)*8 - 1)
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 32; i++ {
		bit := (len(blob)-40)*8 + rng.Intn(40*8)
		cases[fmt.Sprintf("late bit %d", bit)] = flipped(bit)
	}
	var long bytes.Buffer
	zw := zlib.NewWriter(&long)
	zw.Write(encodeBasket(events2branch(events[:50], 0)))
	zw.Write([]byte("bytes the index does not know about"))
	zw.Close()
	cases["overlong stream"] = long.Bytes()

	for name, bad := range cases {
		damaged := replaceBasket(t, img, 0, 0, bad)

		rd, err := OpenReader(BytesSource(damaged))
		if err != nil {
			t.Fatalf("%s: %v", name, err) // index and trailer are intact
		}
		// Event 49 is the basket's last: its bytes sit where the damage is.
		if got, err := rd.ReadEvent(49, []int{0}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: ReadEvent: err = %v, want ErrCorrupt (wrong bytes returned: %v)", name, err, err == nil && !bytes.Equal(got[0], events[49][0]))
		}
		if _, err := rd.ReadEvent(0, []int{1}); err != nil {
			t.Errorf("%s: clean branch unreadable: %v", name, err)
		}

		a := &asyncCtxSource{}
		rp, err := OpenReader(a.source(damaged))
		if err != nil {
			t.Fatal(err)
		}
		tc := NewTreeCacheDepth(rp, 50, nil, 3)
		if _, err := tc.Event(0); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: pipelined TreeCache: err = %v, want ErrCorrupt", name, err)
		}
		tc.Close()
	}
}

// hugeCountBasket is an 8-byte basket claiming 2^20 events: the count
// bytes that cannot hold them.
var hugeCountBasket = []byte{0, 0x10, 0, 0, 0, 0, 0, 0}

// TestHugeEventCountRejectedBeforeAllocating: a basket's event count is
// held against its bytes before the event table is sized, so a few
// crafted bytes cannot make the reader allocate 24 bytes per claimed event
// (24 MiB here; 96 GiB for a count of 2^32-1).
func TestHugeEventCountRejectedBeforeAllocating(t *testing.T) {
	blob := zlibCompress(t, zlib.DefaultCompression, hugeCountBasket)
	inflateBasket(blob, int64(len(hugeCountBasket))) // warm the pools
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := inflateBasket(blob, int64(len(hugeCountBasket)))
	runtime.ReadMemStats(&m1)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if n := m1.TotalAlloc - m0.TotalAlloc; n >= 64<<10 {
		t.Fatalf("rejecting the basket allocated %d bytes, want < 64 KiB", n)
	}
}

// TestHugeBasketCountRejectedBeforeAllocating: a branch's basket count is
// held against the index bytes left before its basket table is sized, so
// an index claiming 2^20 baskets in 36 bytes cannot make Open allocate 40
// bytes per claimed basket (40 MiB here).
func TestHugeBasketCountRejectedBeforeAllocating(t *testing.T) {
	raw := []byte{0, 0, 0, 1, 0, 1, 'a', 0, 0x10, 0, 0}
	raw = append(raw, make([]byte, 28+8)...)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := decodeIndex(raw)
	runtime.ReadMemStats(&m1)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if n := m1.TotalAlloc - m0.TotalAlloc; n >= 64<<10 {
		t.Fatalf("rejecting the index allocated %d bytes, want < 64 KiB", n)
	}
}

// events2branch extracts one branch's payloads from whole events.
func events2branch(events [][][]byte, branch int) [][]byte {
	out := make([][]byte, len(events))
	for i, ev := range events {
		out[i] = ev[branch]
	}
	return out
}
