package rootio

import (
	"bytes"
	"compress/zlib"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

// FuzzInflateBasket holds inflateBasket against compress/zlib read to EOF:
// it never panics, fails only with ErrCorrupt, and whenever it returns
// events the stdlib inflates the same blob without error to exactly usize
// bytes that decode to the same events.
func FuzzInflateBasket(f *testing.F) {
	raw := encodeBasket(events2branch(randomEvents(39, 20, 1, 48), 0))
	var comp bytes.Buffer
	zw := zlib.NewWriter(&comp)
	zw.Write(raw)
	zw.Close()
	valid := comp.Bytes()
	size := uint32(len(raw))
	flipped := func(i int) []byte {
		c := append([]byte(nil), valid...)
		c[i] ^= 0x10
		return c
	}

	f.Add(valid, size)
	f.Add(flipped(len(valid)-1), size) // adler32 trailer
	f.Add(flipped(len(valid)-20), size)
	f.Add(flipped(len(valid)/2), size)
	f.Add(flipped(0), size) // zlib header
	f.Add(append(append([]byte(nil), valid...), 0), size)
	f.Add(valid[:len(valid)-1], size)
	for _, usize := range []uint32{0, 1, size - 1, size + 1, math.MaxUint32} {
		f.Add(valid, usize)
	}
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{}, uint32(math.MaxUint32))

	f.Fuzz(func(t *testing.T, blob []byte, usize uint32) {
		events, err := inflateBasket(blob, int64(usize))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		zr, err := zlib.NewReader(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("accepted a blob zlib rejects: %v", err)
		}
		got, err := io.ReadAll(zr)
		if err != nil || len(got) != int(usize) {
			t.Fatalf("accepted as %d bytes; zlib reads %d bytes, err %v", usize, len(got), err)
		}
		want, err := decodeBasket(got)
		if err != nil || !reflect.DeepEqual(events, want) {
			t.Fatalf("events differ from decodeBasket of zlib's output (err %v)", err)
		}
	})
}
