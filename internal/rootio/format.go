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
	"slices"
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

// Writer produces an RNT file streamed to an io.Writer.
type Writer struct {
	w      io.Writer
	opts   WriterOptions
	index  Index
	offset int64
	closed bool

	// buffered per-branch payloads for the current basket window
	pending [][][]byte
	events  uint64
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
	wr.pending = make([][][]byte, len(branches))
	var hdr [headerLen]byte
	copy(hdr[0:4], magicHead)
	binary.BigEndian.PutUint32(hdr[4:8], formatVersion)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	wr.offset = headerLen
	return wr, nil
}

// WriteEvent appends one event; values[i] is the payload of branch i.
func (w *Writer) WriteEvent(values [][]byte) error {
	if w.closed {
		return ErrClosed
	}
	if len(values) != len(w.index.Branches) {
		return fmt.Errorf("rootio: event has %d values, file has %d branches", len(values), len(w.index.Branches))
	}
	for i, v := range values {
		cp := make([]byte, len(v))
		copy(cp, v)
		w.pending[i] = append(w.pending[i], cp)
	}
	w.events++
	if len(w.pending[0]) >= w.opts.EventsPerBasket {
		return w.flushBaskets()
	}
	return nil
}

// flushBaskets writes one basket per branch for the buffered events.
func (w *Writer) flushBaskets() error {
	n := len(w.pending[0])
	if n == 0 {
		return nil
	}
	firstEvent := w.events - uint64(n)
	for bi := range w.pending {
		raw := encodeBasket(w.pending[bi])
		var comp bytes.Buffer
		zw, err := zlib.NewWriterLevel(&comp, w.opts.CompressionLevel)
		if err != nil {
			return err
		}
		if _, err := zw.Write(raw); err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
		if _, err := w.w.Write(comp.Bytes()); err != nil {
			return err
		}
		w.index.Branches[bi].Baskets = append(w.index.Branches[bi].Baskets, BasketInfo{
			Offset:           w.offset,
			CompressedSize:   int64(comp.Len()),
			UncompressedSize: int64(len(raw)),
			FirstEvent:       firstEvent,
			NumEvents:        uint32(n),
		})
		w.offset += int64(comp.Len())
		w.pending[bi] = w.pending[bi][:0]
	}
	return nil
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

// encodeBasket serializes event payloads: nEvents u32 { len u32 bytes }.
func encodeBasket(events [][]byte) []byte {
	size := 4
	for _, e := range events {
		size += 4 + len(e)
	}
	out := make([]byte, 0, size)
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], uint32(len(events)))
	out = append(out, tmp[:]...)
	for _, e := range events {
		binary.BigEndian.PutUint32(tmp[:], uint32(len(e)))
		out = append(out, tmp[:]...)
		out = append(out, e...)
	}
	return out
}

// decodeBasket reverses encodeBasket, appending the payloads to events[:0].
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

// decodeIndex reverses encodeIndex.
func decodeIndex(raw []byte) (*Index, error) {
	rd := bytes.NewReader(raw)
	read := func(n int) ([]byte, error) {
		b := make([]byte, n)
		if _, err := io.ReadFull(rd, b); err != nil {
			return nil, ErrCorrupt
		}
		return b, nil
	}
	b, err := read(4)
	if err != nil {
		return nil, err
	}
	nb := binary.BigEndian.Uint32(b)
	if nb > 1<<20 {
		return nil, ErrCorrupt
	}
	idx := &Index{}
	for i := uint32(0); i < nb; i++ {
		b, err := read(2)
		if err != nil {
			return nil, err
		}
		nameLen := binary.BigEndian.Uint16(b)
		nameB, err := read(int(nameLen))
		if err != nil {
			return nil, err
		}
		br := BranchIndex{Name: string(nameB)}
		b, err = read(4)
		if err != nil {
			return nil, err
		}
		nbk := binary.BigEndian.Uint32(b)
		if nbk > 1<<24 {
			return nil, ErrCorrupt
		}
		for j := uint32(0); j < nbk; j++ {
			b, err = read(28)
			if err != nil {
				return nil, err
			}
			br.Baskets = append(br.Baskets, BasketInfo{
				Offset:           int64(binary.BigEndian.Uint64(b[0:8])),
				CompressedSize:   int64(binary.BigEndian.Uint32(b[8:12])),
				UncompressedSize: int64(binary.BigEndian.Uint32(b[12:16])),
				FirstEvent:       binary.BigEndian.Uint64(b[16:24]),
				NumEvents:        binary.BigEndian.Uint32(b[24:28]),
			})
		}
		idx.Branches = append(idx.Branches, br)
	}
	b, err = read(8)
	if err != nil {
		return nil, err
	}
	idx.Events = binary.BigEndian.Uint64(b)
	return idx, nil
}
