package rootio

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"godavix/internal/bufpool"
	"godavix/internal/rangev"
)

// Source is the storage access abstraction the Reader pulls bytes through.
// The function-field design keeps rootio decoupled from the transports:
// davix Files, xrootd Files (via adapters) and plain byte slices all fit.
type Source struct {
	// Size is the total file size in bytes.
	Size int64

	// ReadVec fetches the given ranges into dsts (dsts[i] sized to
	// ranges[i].Len). Required.
	ReadVec func(ranges []rangev.Range, dsts [][]byte) error

	// ReadVecAsyncCtx, when non-nil, starts the fetch and returns a channel
	// yielding the single completion error. TreeCache uses it to overlap
	// the next windows' network fetches with the current window's
	// processing (the sliding-window advantage of §3), and cancels ctx to
	// abandon a fill mid-flight when the access pattern jumps away from
	// its window or a retrain retires the whole branch set.
	ReadVecAsyncCtx func(ctx context.Context, ranges []rangev.Range, dsts [][]byte) <-chan error

	// Hint is never called.
	//
	// Deprecated: read-ahead is TreeCache's window pipeline over
	// ReadVecAsyncCtx; a Source without it reads synchronously at depth 0.
	Hint func(ranges []rangev.Range)
}

// BytesSource adapts an in-memory file image to a Source.
func BytesSource(data []byte) Source {
	return Source{
		Size: int64(len(data)),
		ReadVec: func(ranges []rangev.Range, dsts [][]byte) error {
			for i, r := range ranges {
				if r.Off < 0 || r.End() > int64(len(data)) {
					return fmt.Errorf("rootio: range [%d,+%d) out of bounds", r.Off, r.Len)
				}
				copy(dsts[i][:r.Len], data[r.Off:r.End()])
			}
			return nil
		},
	}
}

// Reader reads events from an RNT file through a Source.
type Reader struct {
	src Source
	idx *Index

	mu    sync.Mutex
	cache map[basketKey]*basket
}

// basket is one decoded basket: the inflated bytes, a bufpool buffer the
// reader owns from decode until a TreeCache window evicts the basket, and
// the event table whose payloads alias them. Records are pooled, so a table
// is reused by the next basket decoded.
type basket struct {
	raw    []byte
	events [][]byte
}

var baskets = sync.Pool{New: func() any { return new(basket) }}

// poisonReleased makes release fill the inflated bytes with 0xAA, so a
// payload read after its basket was evicted shows. Only tests set it.
var poisonReleased bool

// release hands b's buffer and record back to their pools. Payloads taken
// from b must not be used afterwards.
func (b *basket) release() {
	if poisonReleased {
		for i := range b.raw {
			b.raw[i] = 0xAA
		}
	}
	bufpool.Put(b.raw)
	clear(b.events)
	b.raw, b.events = nil, b.events[:0]
	baskets.Put(b)
}

type basketKey struct {
	branch, basket int
}

// OpenReader validates the header/trailer and loads the index
// (two vectored reads in total).
func OpenReader(src Source) (*Reader, error) {
	if src.Size < headerLen+trailerLen {
		return nil, ErrBadMagic
	}
	head := make([]byte, headerLen)
	tail := make([]byte, trailerLen)
	err := src.ReadVec(
		[]rangev.Range{{Off: 0, Len: headerLen}, {Off: src.Size - trailerLen, Len: trailerLen}},
		[][]byte{head, tail},
	)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(head[0:4], magicHead) || !bytes.Equal(tail[12:16], magicTail) {
		return nil, ErrBadMagic
	}
	idxOff := int64(binary.BigEndian.Uint64(tail[0:8]))
	idxLen := int64(binary.BigEndian.Uint32(tail[8:12]))
	if idxOff < headerLen || idxOff+idxLen+trailerLen > src.Size {
		return nil, ErrCorrupt
	}
	idxRaw := make([]byte, idxLen)
	if err := src.ReadVec([]rangev.Range{{Off: idxOff, Len: idxLen}}, [][]byte{idxRaw}); err != nil {
		return nil, err
	}
	idx, err := decodeIndex(idxRaw)
	if err != nil {
		return nil, err
	}
	return &Reader{src: src, idx: idx, cache: make(map[basketKey]*basket)}, nil
}

// Events returns the total number of events.
func (r *Reader) Events() uint64 { return r.idx.Events }

// Branches returns the branch names in declaration order.
func (r *Reader) Branches() []string {
	names := make([]string, len(r.idx.Branches))
	for i, b := range r.idx.Branches {
		names[i] = b.Name
	}
	return names
}

// BranchIndexOf returns the position of the named branch, or -1.
func (r *Reader) BranchIndexOf(name string) int {
	for i, b := range r.idx.Branches {
		if b.Name == name {
			return i
		}
	}
	return -1
}

// Index exposes the table of contents (read-only by convention).
func (r *Reader) Index() *Index { return r.idx }

// basketFor locates the basket of branch bi containing event ev.
func (r *Reader) basketFor(bi int, ev uint64) (int, error) {
	baskets := r.idx.Branches[bi].Baskets
	lo, hi := 0, len(baskets)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		b := baskets[mid]
		switch {
		case ev < b.FirstEvent:
			hi = mid - 1
		case ev >= b.FirstEvent+uint64(b.NumEvents):
			lo = mid + 1
		default:
			return mid, nil
		}
	}
	return 0, fmt.Errorf("rootio: event %d not covered by branch %q", ev, r.idx.Branches[bi].Name)
}

// loadBaskets fetches and decodes the given baskets in one vectored read
// through read, into bufpool buffers it returns once they are decoded.
// Keys already cached are skipped, and read is not called when none is
// left.
func (r *Reader) loadBaskets(keys []basketKey, read func([]rangev.Range, [][]byte) error) error {
	r.mu.Lock()
	var need []basketKey
	for _, k := range keys {
		if _, ok := r.cache[k]; !ok {
			need = append(need, k)
		}
	}
	r.mu.Unlock()
	if len(need) == 0 {
		return nil
	}

	ranges := make([]rangev.Range, len(need))
	dsts := make([][]byte, len(need))
	for i, k := range need {
		b := r.idx.Branches[k.branch].Baskets[k.basket]
		ranges[i] = rangev.Range{Off: b.Offset, Len: b.CompressedSize}
		dsts[i] = bufpool.Get(int(b.CompressedSize))
	}
	err := read(ranges, dsts)
	var decoded []*basket
	if err == nil {
		decoded, err = r.decodeBaskets(need, dsts)
	}
	putAll(dsts)
	if err != nil {
		return err
	}
	r.publish(need, decoded)
	return nil
}

// putAll returns fetch buffers to bufpool.
func putAll(bufs [][]byte) {
	for _, buf := range bufs {
		bufpool.Put(buf)
	}
}

// decodeBaskets inflates fetched basket blobs: the result's element i is
// the decoded basket of keys[i]. It reads only the index, so a window fill
// runs it on its own goroutine; the baskets are spread over up to
// GOMAXPROCS workers, and of several failures the one earliest in keys is
// reported.
func (r *Reader) decodeBaskets(keys []basketKey, blobs [][]byte) ([]*basket, error) {
	out := make([]*basket, len(keys))
	decode := func(i int) error {
		b := r.idx.Branches[keys[i].branch].Baskets[keys[i].basket]
		bk, err := inflateBasket(blobs[i], b.UncompressedSize)
		if err != nil {
			return err
		}
		if uint32(len(bk.events)) != b.NumEvents {
			bk.release()
			return ErrCorrupt
		}
		out[i] = bk
		return nil
	}
	// The caller is the first worker, so a lone basket or a single
	// processor starts no goroutine.
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		errs = make([]error, len(keys))
	)
	work := func() {
		defer wg.Done()
		for i := int(next.Add(1)) - 1; i < len(keys); i = int(next.Add(1)) - 1 {
			if errs[i] = decode(i); errs[i] != nil {
				return
			}
		}
	}
	workers := max(1, min(runtime.GOMAXPROCS(0), len(keys)))
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go work()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// publish makes decoded baskets visible to ReadEvent and payload.
func (r *Reader) publish(keys []basketKey, decoded []*basket) {
	r.mu.Lock()
	for i, k := range keys {
		r.cache[k] = decoded[i]
	}
	r.mu.Unlock()
}

// inflaters pools decoder tables: one per basket being inflated at once.
var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// maxInflateRatio is deflate's maximum expansion (RFC 1951: 258 bytes
// from a 2-bit match); inflateSlack covers the zlib framing.
const (
	maxInflateRatio = 1032
	inflateSlack    = 64
)

// inflateBasket decompresses one basket blob that the index says holds
// usize bytes, in one pass into a bufpool buffer of that size, and splits
// it into event payloads. The buffer is not zeroed: the decoder writes
// exactly usize bytes or fails. Damage anywhere in the blob, and a size the
// blob cannot inflate to, are ErrCorrupt. So, unlike compress/zlib, are
// bytes after the adler32 trailer — the index's CompressedSize says they
// belong to the basket — and a preset dictionary, which no basket has.
func inflateBasket(blob []byte, usize int64) (*basket, error) {
	if usize < 0 || usize > maxInflateRatio*int64(len(blob))+inflateSlack {
		return nil, fmt.Errorf("%w: basket claims %d bytes from a %d-byte blob", ErrCorrupt, usize, len(blob))
	}
	b := baskets.Get().(*basket)
	b.raw = bufpool.Get(int(usize))
	inf := inflaters.Get().(*inflater)
	err := inf.inflate(b.raw, blob)
	inflaters.Put(inf)
	if err != nil {
		err = fmt.Errorf("%w: basket inflate: %w", ErrCorrupt, err)
	} else {
		b.events, err = decodeBasket(b.events, b.raw)
	}
	if err != nil {
		b.release()
		return nil, err
	}
	return b, nil
}

// payload returns branch bi of event ev from its decoded basket, fetching
// the basket on demand when it is not resident. Inside a filled TreeCache
// window it is one binary search and one map lookup.
func (r *Reader) payload(ev uint64, bi int) ([]byte, error) {
	bk, err := r.basketFor(bi, ev)
	if err != nil {
		return nil, err
	}
	k := basketKey{branch: bi, basket: bk}
	r.mu.Lock()
	b, ok := r.cache[k]
	r.mu.Unlock()
	if !ok {
		if err := r.loadBaskets([]basketKey{k}, r.src.ReadVec); err != nil {
			return nil, err
		}
		r.mu.Lock()
		b = r.cache[k]
		r.mu.Unlock()
	}
	return b.events[ev-r.idx.Branches[bi].Baskets[bk].FirstEvent], nil
}

// ReadEvent returns the payloads of event ev for the selected branch
// positions (nil selects every branch). Baskets are fetched on demand —
// without a TreeCache every cold basket costs one network round trip,
// which is precisely the naive pattern of Figure 3's left side.
//
// The payloads alias the decoded baskets. A plain Reader keeps every basket
// it decodes, so they stay valid for its lifetime; under a TreeCache they
// are valid until the cache enters a window that no longer needs their
// basket.
func (r *Reader) ReadEvent(ev uint64, branches []int) ([][]byte, error) {
	if ev >= r.idx.Events {
		return nil, fmt.Errorf("rootio: event %d out of range (%d events)", ev, r.idx.Events)
	}
	if branches == nil {
		branches = make([]int, len(r.idx.Branches))
		for i := range branches {
			branches[i] = i
		}
	}
	keys := make([]basketKey, len(branches))
	for i, bi := range branches {
		bk, err := r.basketFor(bi, ev)
		if err != nil {
			return nil, err
		}
		keys[i] = basketKey{branch: bi, basket: bk}
	}
	if err := r.loadBaskets(keys, r.src.ReadVec); err != nil {
		return nil, err
	}
	out := make([][]byte, len(branches))
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, k := range keys {
		b := r.idx.Branches[k.branch].Baskets[k.basket]
		out[i] = r.cache[k].events[ev-b.FirstEvent]
	}
	return out, nil
}

// evict drops every decoded basket keep does not list, and releases its
// buffers — the TreeCache's window eviction, under which a basket stays
// resident while the entered window needs it.
func (r *Reader) evict(keep []basketKey) {
	r.mu.Lock()
	for k, b := range r.cache {
		if !slices.Contains(keep, k) {
			delete(r.cache, k)
			b.release()
		}
	}
	r.mu.Unlock()
}

// resident reports whether basket k is decoded in the cache.
func (r *Reader) resident(k basketKey) bool {
	r.mu.Lock()
	_, ok := r.cache[k]
	r.mu.Unlock()
	return ok
}

// cachedBaskets reports how many decoded baskets are resident.
func (r *Reader) cachedBaskets() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cache)
}
