package rootio

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
)

// TestWriterBytesAreSerial pins Synthesize's output to the bytes of the
// serial writer, which compressed each basket with a fresh zlib.Writer on
// one goroutine: the goldens are that writer's sha256s. Compressing a
// window's baskets on several workers with reused compressors must not
// move a byte at any GOMAXPROCS (CI runs this at -cpu 1,2,4).
func TestWriterBytesAreSerial(t *testing.T) {
	for _, c := range []struct {
		name string
		spec SynthSpec
		sum  string
	}{
		{"benchmark seed 1", SynthSpec{Events: 12000, Branches: 12, MeanPayload: 64, Seed: 1},
			"d9eb59a799e469a58c50d9850d4481746dcb0a22d69dbc26f5fc76c85f6033a4"},
		{"partial last basket", SynthSpec{Events: 1000, Branches: 4, MeanPayload: 100, EventsPerBasket: 64, Seed: 2},
			"48a249784ca6467b6d8c569201695e436d2bcf98b05cd97300f894c9e79f8b47"},
		{"one branch", SynthSpec{Events: 300, Branches: 1, MeanPayload: 200, EventsPerBasket: 50, Seed: 3},
			"0f7bcc4a24c8efbf3f0ca2967039aaf3ee2d8667557aa1d80b3a9640e1e0b881"},
		{"more branches than cores", SynthSpec{Events: 500, Branches: 17, MeanPayload: 32, EventsPerBasket: 100, Seed: 4},
			"56d8379ae2ae75708008aa3f634f98286128ccd73d899d272335614f3c01e685"},
		{"only a partial basket", SynthSpec{Events: 3, Branches: 5, MeanPayload: 16, Seed: 5},
			"05ebcbae7f54e75458af38febe58e63d7f29230b32368096e61872ca5b8ed120"},
	} {
		t.Run(c.name, func(t *testing.T) {
			img, err := Synthesize(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(img); hex.EncodeToString(sum[:]) != c.sum {
				t.Fatalf("GOMAXPROCS %d: sha256 %x, want %s", runtime.GOMAXPROCS(0), sum, c.sum)
			}
		})
	}
}

// TestWriteEventAllocs: once the first window is flushed, WriteEvent
// allocates nothing, flushes included. Payloads are appended to buffers
// the last window grew, each worker's compressor is reset, not made
// afresh, and its goroutine runs a func built once. The index is made to
// hold every measured window's baskets beforehand, so its growth is not
// counted.
func TestWriteEventAllocs(t *testing.T) {
	const perBasket = 64
	names := SynthSpec{Branches: 12}.BranchNames()
	w, err := NewWriter(io.Discard, names, WriterOptions{EventsPerBasket: perBasket})
	if err != nil {
		t.Fatal(err)
	}
	event := make([][]byte, len(names))
	for i := range event {
		event[i] = bytes.Repeat([]byte{byte(i)}, 40+i*8)
	}
	writeWindow := func() {
		for range perBasket {
			if err := w.WriteEvent(event); err != nil {
				t.Fatal(err)
			}
		}
	}
	writeWindow()
	for i := range w.index.Branches {
		w.index.Branches[i].Baskets = make([]BasketInfo, 1, 64)
	}
	if allocs := testing.AllocsPerRun(8, writeWindow); allocs != 0 {
		t.Fatalf("%v allocs per %d-event window, want 0", allocs, perBasket)
	}
}

// failingWriter fails its k-th Write (1-based) and every one after it.
type failingWriter struct {
	k, n int
	err  error
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.n++; f.n >= f.k {
		return 0, f.err
	}
	return len(p), nil
}

// TestWriterReturnsWriteError: whichever Write of the file fails (the
// header's, a basket's, the index's or the trailer's), NewWriter,
// WriteEvent or Close returns that error, and the compressing goroutines
// have all been joined when it does.
func TestWriterReturnsWriteError(t *testing.T) {
	const branches, perBasket, events = 5, 10, 25
	payloads := randomEvents(61, events, branches, 32)
	// 1 header, 3 windows of 5 baskets (the last flushed by Close), index,
	// trailer.
	const writes = 1 + 3*branches + 2
	for k := 1; k <= writes; k++ {
		t.Run(fmt.Sprintf("write %d", k), func(t *testing.T) {
			base := runtime.NumGoroutine()
			fw := &failingWriter{k: k, err: fmt.Errorf("write %d failed", k)}
			w, err := NewWriter(fw, []string{"a", "b", "c", "d", "e"}, WriterOptions{EventsPerBasket: perBasket})
			for ev := 0; err == nil && ev < events; ev++ {
				err = w.WriteEvent(payloads[ev])
			}
			if err == nil {
				err = w.Close()
			}
			if !errors.Is(err, fw.err) {
				t.Fatalf("err = %v, want %v", err, fw.err)
			}
			waitGoroutines(t, base)
		})
	}
}
