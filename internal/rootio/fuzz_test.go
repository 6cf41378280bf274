package rootio

import (
	"bytes"
	"compress/zlib"
	"errors"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// zlibInflater is the reference decoder inflateBasket is held against:
// compress/zlib, re-armed through zlib.Resetter and read to EOF, which is
// what makes it compare the adler32 trailer.
type zlibInflater struct {
	src  bytes.Reader
	zr   io.ReadCloser
	tail [1]byte
}

// inflate decompresses blob, which must hold exactly usize bytes, and
// reports how many bytes follow its trailer (compress/zlib ignores them).
func (inf *zlibInflater) inflate(blob []byte, usize int64) (raw []byte, trailing int, err error) {
	inf.src.Reset(blob)
	if inf.zr == nil {
		inf.zr, err = zlib.NewReader(&inf.src)
	} else {
		err = inf.zr.(zlib.Resetter).Reset(&inf.src, nil)
	}
	if err != nil {
		return nil, 0, err
	}
	raw = make([]byte, usize)
	if _, err := io.ReadFull(inf.zr, raw); err != nil {
		return nil, 0, err
	}
	switch n, err := inf.zr.Read(inf.tail[:]); {
	case n != 0:
		return nil, 0, errors.New("stream longer than usize")
	case err != io.EOF:
		return nil, 0, err
	}
	return raw, inf.src.Len(), nil
}

// zlibCompress is raw as one zlib stream at the given level.
func zlibCompress(tb testing.TB, level int, raw []byte) []byte {
	var comp bytes.Buffer
	zw, err := zlib.NewWriterLevel(&comp, level)
	if err != nil {
		tb.Fatal(err)
	}
	zw.Write(raw)
	zw.Close()
	return comp.Bytes()
}

// FuzzInflateBasket holds inflateBasket against compress/zlib in both
// directions. It never panics and fails only with ErrCorrupt. Whenever it
// returns events, zlib inflates the same blob to exactly usize bytes, with
// nothing after the trailer, that decode to the same events. Whenever zlib
// does that and decodeBasket accepts its output, so does inflateBasket —
// save for a preset dictionary (FDICT), which zlib takes when it is empty
// and inflateBasket never does.
func FuzzInflateBasket(f *testing.F) {
	raw := encodeBasket(events2branch(randomEvents(39, 20, 1, 48), 0))
	valid := zlibCompress(f, zlib.DefaultCompression, raw)
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
	f.Add(zlibCompress(f, zlib.DefaultCompression, hugeCountBasket), uint32(len(hugeCountBasket)))

	// The random payloads above compress to stored blocks. One stream per
	// block type and encoder strategy over half-structured payloads: stored,
	// fixed Huffman with a match (a few bytes; compress/flate picks stored
	// or dynamic for them at BestSpeed), Huffman-only, BestCompression, the
	// empty stream, and a >64 KiB basket spanning several blocks, dynamic
	// and stored.
	rng := rand.New(rand.NewSource(40))
	payloads := make([][]byte, 300)
	for ev := range payloads {
		payloads[ev] = synthPayload(rng, ev, 3, 256)
	}
	text, big := encodeBasket(payloads[:20]), encodeBasket(payloads)
	tiny := encodeBasket([][]byte{[]byte("abababababababab")})
	textSize, bigSize := uint32(len(text)), uint32(len(big))
	f.Add(zlibCompress(f, zlib.NoCompression, text), textSize)
	f.Add(zlibCompress(f, zlib.DefaultCompression, tiny), uint32(len(tiny)))
	f.Add(zlibCompress(f, zlib.HuffmanOnly, text), textSize)
	f.Add(zlibCompress(f, zlib.BestCompression, text), textSize)
	f.Add(zlibCompress(f, zlib.DefaultCompression, nil), uint32(0))
	f.Add(zlibCompress(f, zlib.NoCompression, big), bigSize)
	multi := zlibCompress(f, zlib.DefaultCompression, big)
	f.Add(append(append([]byte(nil), multi...), 0), bigSize)
	for _, usize := range []uint32{0, 1, bigSize - 1, bigSize, bigSize + 1, math.MaxUint32} {
		f.Add(multi, usize)
	}

	f.Fuzz(func(t *testing.T, blob []byte, usize uint32) {
		bk, err := inflateBasket(blob, int64(usize))
		if err == nil {
			defer bk.release()
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("error does not wrap ErrCorrupt: %v", err)
		}
		if int64(usize) > maxInflateRatio*int64(len(blob))+inflateSlack {
			if err == nil {
				t.Fatalf("accepted %d bytes from a %d-byte blob", usize, len(blob))
			}
			return // no zlib stream that short holds that much
		}
		got, trailing, zerr := new(zlibInflater).inflate(blob, int64(usize))
		if err == nil {
			if zerr != nil || trailing != 0 {
				t.Fatalf("accepted as %d bytes; zlib: err %v, %d bytes after the trailer", usize, zerr, trailing)
			}
			if want, err := decodeBasket(nil, got); err != nil || !slices.EqualFunc(bk.events, want, bytes.Equal) {
				t.Fatalf("events differ from decodeBasket of zlib's output (err %v)", err)
			}
			return
		}
		if zerr != nil || trailing != 0 || blob[1]&0x20 != 0 {
			return
		}
		if _, derr := decodeBasket(nil, got); derr == nil {
			t.Fatalf("zlib inflates exactly %d bytes and they decode, but inflateBasket fails: %v", usize, err)
		}
	})
}

// FuzzTreeCacheScan holds the window pipeline against Reader.ReadEvent over
// BytesSource: whatever the window, depth, basket size, branch subset and
// access pattern — forward steps, jumps either way, branches first read
// after training — every payload a TreeCache or a TrainingCache returns is
// the naive read's, a TreeCache payload is still intact while the current
// window needs its basket, and the baskets a TreeCache holds never outgrow
// the current window plus the lookahead.
func FuzzTreeCacheScan(f *testing.F) {
	f.Add(uint16(300), uint8(15), uint16(1), uint8(3), uint8(0b1011), int64(1))   // window 1
	f.Add(uint16(300), uint8(15), uint16(300), uint8(2), uint8(0b0110), int64(2)) // window = events
	f.Add(uint16(200), uint8(255), uint16(64), uint8(4), uint8(0b1111), int64(3)) // one basket per file
	f.Add(uint16(399), uint8(63), uint16(100), uint8(0), uint8(0b0001), int64(4))
	f.Add(uint16(399), uint8(31), uint16(50), uint8(6), uint8(0b1000), int64(5))
	f.Add(uint16(0), uint8(0), uint16(0), uint8(1), uint8(0), int64(6)) // one event, one per basket

	f.Fuzz(func(t *testing.T, nEvents uint16, perBasket uint8, window uint16, depth uint8, mask uint8, seed int64) {
		n := int(nEvents%400) + 1
		const nBranches = 4
		events := randomEvents(seed, n, nBranches, 16)
		img := buildFile(t, []string{"a", "b", "c", "d"}, events, WriterOptions{EventsPerBasket: int(perBasket) + 1})
		ref, err := OpenReader(BytesSource(img))
		if err != nil {
			t.Fatal(err)
		}
		var sel []int
		for bi := 0; bi < nBranches; bi++ {
			if mask&(1<<bi) != 0 {
				sel = append(sel, bi)
			}
		}
		if sel == nil {
			sel = []int{int(mask>>4) % nBranches}
		}
		w := uint64(window)%uint64(n) + 1
		d := int(depth % 7)
		want := func(ev uint64, bi int) []byte {
			p, err := ref.ReadEvent(ev, []int{bi})
			if err != nil {
				t.Fatal(err)
			}
			return p[0]
		}
		// next is the access pattern: mostly short forward steps, now and
		// then a jump anywhere, forward or back.
		rng := rand.New(rand.NewSource(seed))
		next := func(ev uint64) uint64 {
			if rng.Intn(8) == 0 {
				return uint64(rng.Intn(n))
			}
			return (ev + uint64(rng.Intn(int(w)+2))) % uint64(n)
		}
		steps := 3*n + 10

		r, err := OpenReader(goSource(img))
		if err != nil {
			t.Fatal(err)
		}
		tc := NewTreeCacheDepth(r, w, sel, d)
		var (
			ev, prevEv uint64
			prevBi     int
			prev       []byte
		)
		for i := 0; i < steps; i++ {
			pos := rng.Intn(len(sel))
			got, err := tc.Branch(ev, pos)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want(ev, sel[pos])) {
				t.Fatalf("TreeCache: event %d branch %d differs from ReadEvent", ev, sel[pos])
			}
			if prev != nil && tc.needs(ev, prevEv, prevBi) && !bytes.Equal(prev, want(prevEv, prevBi)) {
				t.Fatalf("TreeCache: event %d branch %d changed while its basket was needed", prevEv, prevBi)
			}
			checkPipelineMemory(t, tc)
			prevEv, prevBi, prev = ev, sel[pos], got
			ev = next(ev)
		}
		tc.Close()

		// The TrainingCache starts on the first selected branch and meets
		// the others one by one, some during training and some after it.
		r, err = OpenReader(goSource(img))
		if err != nil {
			t.Fatal(err)
		}
		tr := NewTrainingCacheDepth(r, uint64(rng.Intn(n)+1), w, d)
		defer tr.Close()
		known, ev := 1, uint64(0)
		for i := 0; i < steps; i++ {
			if known < len(sel) && rng.Intn(n) == 0 {
				known++
			}
			bi := sel[rng.Intn(known)]
			got, err := tr.Branch(ev, bi)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want(ev, bi)) {
				t.Fatalf("TrainingCache: event %d branch %d differs from ReadEvent", ev, bi)
			}
			ev = next(ev)
		}
	})
}

// FuzzTrainingScan holds the training lookahead on a sequential scan:
// whatever the training length, window, depth and basket size, and
// whichever order and training events the branches are first met in,
// every payload is ReadEvent's, no basket is fetched twice across
// training, lookahead and pipeline, and no speculative byte is wasted (see
// lookaheadScan). Its seeds are lookaheadRows.
func FuzzTrainingScan(f *testing.F) {
	for i, c := range lookaheadRows {
		f.Add(uint16(c.events), uint8(c.perBasket-1), uint16(c.train), uint16(c.window), uint8(c.depth), int64(i))
	}
	f.Add(uint16(5), uint8(0), uint16(3), uint16(1), uint8(4), int64(7))        // one event per basket and window
	f.Add(uint16(600), uint8(255), uint16(700), uint16(50), uint8(2), int64(8)) // training outlasts the file

	f.Fuzz(func(t *testing.T, nEvents uint16, perBasket uint8, train, window uint16, depth uint8, seed int64) {
		n := int(nEvents%1200) + 2
		img := buildFile(t, []string{"a", "b", "c", "d"}, randomEvents(seed, n, 4, 16), WriterOptions{EventsPerBasket: int(perBasket) + 1})
		tr := uint64(train%1500) + 2
		rng := rand.New(rand.NewSource(seed))
		order := rng.Perm(4)[:rng.Intn(4)+1]
		// First meetings before the last training event, so none forces a
		// retrain; the first at event 0.
		touch := make([]uint64, len(order))
		for i := 1; i < len(touch); i++ {
			touch[i] = uint64(rng.Int63n(int64(min(tr-1, uint64(n)))))
		}
		slices.Sort(touch)
		lookaheadScan(t, img, tr, uint64(window)%uint64(n)+1, int(depth%5), order, touch)
	})
}

// needs reports whether the window holding event ev needs the basket of
// branch bi that holds event held.
func (tc *TreeCache) needs(ev, held uint64, bi int) bool {
	bk, err := tc.reader.basketFor(bi, held)
	keys, kerr := tc.windowKeys(ev-ev%tc.window, tc.branches, 0)
	return err == nil && kerr == nil && slices.Contains(keys, basketKey{branch: bi, basket: bk})
}
