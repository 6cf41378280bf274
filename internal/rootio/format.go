// Package rootio implements "RNT", a ROOT-inspired columnar event-file
// format, plus the TreeCache read-ahead machinery of the paper's Figure 3.
//
// A HEP dataset is a sequence of events; each event has one payload per
// branch (column). Payloads are grouped per branch into baskets of
// consecutive events, and each basket is zlib-compressed and written
// contiguously. Reading a subset of events for a subset of branches
// therefore touches many small scattered byte ranges — exactly the access
// pattern that motivates davix's vectored multi-range I/O.
//
// Layout:
//
//	"RNT1" | version u32
//	basket blobs (zlib), concatenated in write order
//	index: nbranches u32 { nameLen u16 name nbaskets u32
//	       { off u64 csize u32 usize u32 firstEvent u64 nEvents u32 } }
//	       totalEvents u64
//	trailer: indexOff u64 indexLen u32 "RNTI"
package rootio

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Format constants.
var (
	magicHead = []byte("RNT1")
	magicTail = []byte("RNTI")
)

const (
	formatVersion = 1
	headerLen     = 8  // magic + version
	trailerLen    = 16 // indexOff + indexLen + magic
)

// Format errors.
var (
	ErrBadMagic   = errors.New("rootio: bad magic (not an RNT file)")
	ErrCorrupt    = errors.New("rootio: corrupt file")
	ErrClosed     = errors.New("rootio: writer closed")
	ErrNoBranches = errors.New("rootio: at least one branch required")
)

// BasketInfo locates one compressed basket inside the file.
type BasketInfo struct {
	// Offset is the byte position of the compressed blob.
	Offset int64
	// CompressedSize and UncompressedSize describe the blob.
	CompressedSize, UncompressedSize int64
	// FirstEvent is the index of the basket's first event.
	FirstEvent uint64
	// NumEvents is how many events the basket holds.
	NumEvents uint32
}

// BranchIndex is the full basket list of one branch.
type BranchIndex struct {
	// Name is the branch name.
	Name string
	// Baskets are ordered by FirstEvent.
	Baskets []BasketInfo
}

// Index is the file's table of contents.
type Index struct {
	// Branches in declaration order.
	Branches []BranchIndex
	// Events is the total event count.
	Events uint64
}

// WriterOptions tunes file production.
type WriterOptions struct {
	// EventsPerBasket groups this many events per branch basket
	// (default 256).
	EventsPerBasket int
	// CompressionLevel is the zlib level (default zlib.DefaultCompression).
	CompressionLevel int
}

func (o WriterOptions) withDefaults() WriterOptions {
	if o.EventsPerBasket == 0 {
		o.EventsPerBasket = 256
	}
	if o.CompressionLevel == 0 {
		o.CompressionLevel = zlib.DefaultCompression
	}
	return o
}

// Writer produces an RNT file streamed to an io.Writer. Each window's
// baskets are compressed on min(GOMAXPROCS, branches) goroutines, the
// caller's among them, and written in branch order once all are done, so
// the file's bytes do not depend on how many cores compressed them.
type Writer struct {
	w      io.Writer
	opts   WriterOptions
	index  Index
	offset int64
	closed bool

	// raw holds each branch's basket for the current window as it will be
	// compressed: a 4-byte event-count slot, filled at flush, then
	// len u32 | payload per event.
	raw     [][]byte
	pending int // events in the current window
	events  uint64

	// comp and errs are each branch's compressed basket and verdict of the
	// last flush. zws[k] is worker k's compressor, reset for every basket;
	// jobs[k-1] runs worker k on a goroutine of its own.
	comp []bytes.Buffer
	errs []error
	zws  []*zlib.Writer
	jobs []func()
	next atomic.Int32 // next branch a worker claims
	wg   sync.WaitGroup
}

// NewWriter starts an RNT file with the given branch names.
func NewWriter(w io.Writer, branches []string, opts WriterOptions) (*Writer, error) {
	if len(branches) == 0 {
		return nil, ErrNoBranches
	}
	wr := &Writer{w: w, opts: opts.withDefaults()}
	for _, b := range branches {
		wr.index.Branches = append(wr.index.Branches, BranchIndex{Name: b})
	}
	wr.raw = make([][]byte, len(branches))
	for i := range wr.raw {
		wr.raw[i] = make([]byte, 4)
	}
	wr.comp = make([]bytes.Buffer, len(branches))
	wr.errs = make([]error, len(branches))
	var hdr [headerLen]byte
	copy(hdr[0:4], magicHead)
	binary.BigEndian.PutUint32(hdr[4:8], formatVersion)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	wr.offset = headerLen
	return wr, nil
}

// WriteEvent appends one event; values[i] is the payload of branch i. The
// payloads are copied, so the caller may reuse them once it returns.
func (w *Writer) WriteEvent(values [][]byte) error {
	if w.closed {
		return ErrClosed
	}
	if len(values) != len(w.index.Branches) {
		return fmt.Errorf("rootio: event has %d values, file has %d branches", len(values), len(w.index.Branches))
	}
	for i, v := range values {
		w.raw[i] = binary.BigEndian.AppendUint32(w.raw[i], uint32(len(v)))
		w.raw[i] = append(w.raw[i], v...)
	}
	w.pending++
	w.events++
	if w.pending >= w.opts.EventsPerBasket {
		return w.flushBaskets()
	}
	return nil
}

// flushBaskets writes one basket per branch for the buffered events: it
// compresses them all, then writes them in branch order and returns the
// first error in that order.
func (w *Writer) flushBaskets() error {
	n := w.pending
	if n == 0 {
		return nil
	}
	firstEvent := w.events - uint64(n)
	for _, raw := range w.raw {
		binary.BigEndian.PutUint32(raw[0:4], uint32(n))
	}
	if err := w.compress(); err != nil {
		return err
	}
	for bi, raw := range w.raw {
		if w.errs[bi] != nil {
			return w.errs[bi]
		}
		comp := w.comp[bi].Bytes()
		if _, err := w.w.Write(comp); err != nil {
			return err
		}
		w.index.Branches[bi].Baskets = append(w.index.Branches[bi].Baskets, BasketInfo{
			Offset:           w.offset,
			CompressedSize:   int64(len(comp)),
			UncompressedSize: int64(len(raw)),
			FirstEvent:       firstEvent,
			NumEvents:        uint32(n),
		})
		w.offset += int64(len(comp))
		w.raw[bi] = raw[:4]
	}
	w.pending = 0
	return nil
}

// compress fills comp and errs for every branch on min(GOMAXPROCS,
// branches) workers, the calling goroutine being worker 0, and returns
// once every worker has finished.
func (w *Writer) compress() error {
	workers := min(runtime.GOMAXPROCS(0), len(w.raw))
	for k := len(w.zws); k < workers; k++ {
		zw, err := zlib.NewWriterLevel(nil, w.opts.CompressionLevel)
		if err != nil {
			return err
		}
		w.zws = append(w.zws, zw)
		if k > 0 {
			w.jobs = append(w.jobs, func() {
				defer w.wg.Done()
				w.drain(zw)
			})
		}
	}
	w.next.Store(0)
	w.wg.Add(workers - 1)
	for _, job := range w.jobs[:workers-1] {
		go job()
	}
	w.drain(w.zws[0])
	w.wg.Wait()
	return nil
}

// drain compresses the baskets of the branches it claims with zw until
// none is left.
func (w *Writer) drain(zw *zlib.Writer) {
	for {
		bi := int(w.next.Add(1)) - 1
		if bi >= len(w.raw) {
			return
		}
		comp := &w.comp[bi]
		comp.Reset()
		zw.Reset(comp)
		_, err := zw.Write(w.raw[bi])
		if cerr := zw.Close(); err == nil {
			err = cerr
		}
		w.errs[bi] = err
	}
}

// Close flushes pending baskets and writes the index and trailer.
func (w *Writer) Close() error {
	if w.closed {
		return ErrClosed
	}
	if err := w.flushBaskets(); err != nil {
		return err
	}
	w.closed = true
	w.index.Events = w.events
	idx := encodeIndex(&w.index)
	if _, err := w.w.Write(idx); err != nil {
		return err
	}
	var tr [trailerLen]byte
	binary.BigEndian.PutUint64(tr[0:8], uint64(w.offset))
	binary.BigEndian.PutUint32(tr[8:12], uint32(len(idx)))
	copy(tr[12:16], magicTail)
	_, err := w.w.Write(tr[:])
	return err
}

// decodeBasket parses a basket the Writer built (nEvents u32 { len u32
// bytes }), appending the payloads to events[:0].
// An event count the bytes cannot hold is rejected before the table grows.
func decodeBasket(events [][]byte, raw []byte) ([][]byte, error) {
	if len(raw) < 4 {
		return nil, ErrCorrupt
	}
	n := binary.BigEndian.Uint32(raw[0:4])
	raw = raw[4:]
	if n > uint32(len(raw)/4) {
		return nil, ErrCorrupt
	}
	events = slices.Grow(events[:0], int(n))
	for i := uint32(0); i < n; i++ {
		if len(raw) < 4 {
			return nil, ErrCorrupt
		}
		l := binary.BigEndian.Uint32(raw[0:4])
		raw = raw[4:]
		if uint32(len(raw)) < l {
			return nil, ErrCorrupt
		}
		events = append(events, raw[:l:l])
		raw = raw[l:]
	}
	return events, nil
}

// encodeIndex serializes the table of contents.
func encodeIndex(idx *Index) []byte {
	var buf bytes.Buffer
	var tmp [8]byte
	binary.BigEndian.PutUint32(tmp[:4], uint32(len(idx.Branches)))
	buf.Write(tmp[:4])
	for _, br := range idx.Branches {
		binary.BigEndian.PutUint16(tmp[:2], uint16(len(br.Name)))
		buf.Write(tmp[:2])
		buf.WriteString(br.Name)
		binary.BigEndian.PutUint32(tmp[:4], uint32(len(br.Baskets)))
		buf.Write(tmp[:4])
		for _, b := range br.Baskets {
			binary.BigEndian.PutUint64(tmp[:8], uint64(b.Offset))
			buf.Write(tmp[:8])
			binary.BigEndian.PutUint32(tmp[:4], uint32(b.CompressedSize))
			buf.Write(tmp[:4])
			binary.BigEndian.PutUint32(tmp[:4], uint32(b.UncompressedSize))
			buf.Write(tmp[:4])
			binary.BigEndian.PutUint64(tmp[:8], b.FirstEvent)
			buf.Write(tmp[:8])
			binary.BigEndian.PutUint32(tmp[:4], b.NumEvents)
			buf.Write(tmp[:4])
		}
	}
	binary.BigEndian.PutUint64(tmp[:8], idx.Events)
	buf.Write(tmp[:8])
	return buf.Bytes()
}

// decodeIndex reverses encodeIndex in place. Every count is checked
// against the bytes left before anything is sized from it, and the index
// must end exactly where raw does.
func decodeIndex(raw []byte) (*Index, error) {
	const branchMin, basketLen, eventsLen = 6, 28, 8
	if len(raw) < 4+eventsLen {
		return nil, ErrCorrupt
	}
	nb := binary.BigEndian.Uint32(raw)
	raw = raw[4:]
	if nb > uint32((len(raw)-eventsLen)/branchMin) {
		return nil, ErrCorrupt
	}
	idx := &Index{Branches: make([]BranchIndex, nb)}
	for i := range idx.Branches {
		if len(raw) < 2 {
			return nil, ErrCorrupt
		}
		nameLen := int(binary.BigEndian.Uint16(raw))
		raw = raw[2:]
		if len(raw) < nameLen+4 {
			return nil, ErrCorrupt
		}
		br := &idx.Branches[i]
		br.Name = string(raw[:nameLen])
		nbk := binary.BigEndian.Uint32(raw[nameLen:])
		raw = raw[nameLen+4:]
		if nbk > uint32(len(raw)/basketLen) {
			return nil, ErrCorrupt
		}
		br.Baskets = make([]BasketInfo, nbk)
		for j := range br.Baskets {
			b := raw[:basketLen]
			raw = raw[basketLen:]
			br.Baskets[j] = BasketInfo{
				Offset:           int64(binary.BigEndian.Uint64(b[0:8])),
				CompressedSize:   int64(binary.BigEndian.Uint32(b[8:12])),
				UncompressedSize: int64(binary.BigEndian.Uint32(b[12:16])),
				FirstEvent:       binary.BigEndian.Uint64(b[16:24]),
				NumEvents:        binary.BigEndian.Uint32(b[24:28]),
			}
		}
	}
	if len(raw) != eventsLen {
		return nil, ErrCorrupt
	}
	idx.Events = binary.BigEndian.Uint64(raw)
	return idx, nil
}
