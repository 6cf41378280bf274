package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"godavix/internal/bufpool"
	"godavix/internal/digest"
	"godavix/internal/obs"
)

// Checkpointed resume: a multi-stream transfer journals every completed
// chunk (offset, length, digest) to a sidecar file next to the local
// *os.File. An interrupted transfer restarted with the same geometry loads
// the journal, re-verifies each journaled chunk against the bytes actually
// on disk, and transfers only what is missing or no longer matches. The
// journal is trusted for nothing: a record only skips work after its chunk
// re-hashes to the recorded digest, so neither a torn journal write, a
// lying record, nor data the OS never flushed can ever yield a
// phantom-complete chunk.
//
// Sidecar layout, all big endian:
//
//	header:  magic "DAVIXCK1" | dir byte | size int64 |
//	         algo,aux,id length-prefixed strings | crc32(IEEE) of the above
//	record:  off int64 | ln int64 | sum uint32 | crc32(IEEE) of the 20 bytes
//
// Records are fixed 24-byte appends; the header crc pins the transfer
// identity (direction, object size, digest algorithm, server checksum or
// upload destination+id), so a journal from a different transfer is
// discarded wholesale instead of partially believed.
//
// The digest algorithm is negotiated per transfer (crc32c, or adler32 with
// peers that speak nothing else), so a journal may have been kept under
// another algorithm than the one the resumed transfer verifies with — a
// sidecar written by an adler32-era client, or against a server that has
// since learned crc32c. Such a journal is discarded and the transfer
// starts clean: its sums could only be re-checked, never rolled up. A
// download knows its algorithm from its plan before the journal opens; an
// upload learns it from its probe's reply, so uploadCheckpoint opens the
// journal under any algorithm and bindUploadJournal settles it afterwards.

// CheckpointSuffix names the sidecar journal next to the local file of a
// resumable transfer ("<file>" + CheckpointSuffix).
const CheckpointSuffix = ".davix-ck"

var ckMagic = [8]byte{'D', 'A', 'V', 'I', 'X', 'C', 'K', '1'}

const ckRecSize = 24

// ckAppendHook, when non-nil, intercepts the raw record write — the test
// seam for injected torn-write/failed-fsync faults.
var ckAppendHook func(f *os.File, rec []byte) (int, error)

// ckHeader is the transfer identity a journal is bound to.
type ckHeader struct {
	dir  byte        // 'D' download, 'U' upload
	size int64       // object size
	algo digest.Algo // chunk digest algorithm ("" while an upload negotiates)
	aux  string      // server checksum (downloads) / "host path" (uploads)
	id   string      // upload id to reattach to the server-side assembly
}

func (h ckHeader) encode() []byte {
	b := make([]byte, 0, 64)
	b = append(b, ckMagic[:]...)
	b = append(b, h.dir)
	b = binary.BigEndian.AppendUint64(b, uint64(h.size))
	for _, s := range []string{string(h.algo), h.aux, h.id} {
		b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
		b = append(b, s...)
	}
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// decodeCkHeader reads and validates a header from the start of b,
// returning it and its encoded length.
func decodeCkHeader(b []byte) (ckHeader, int, bool) {
	var h ckHeader
	if len(b) < len(ckMagic)+1+8 || [8]byte(b[:8]) != ckMagic {
		return h, 0, false
	}
	h.dir = b[8]
	h.size = int64(binary.BigEndian.Uint64(b[9:]))
	p := 17
	var algo string
	for _, dst := range []*string{&algo, &h.aux, &h.id} {
		if len(b) < p+2 {
			return h, 0, false
		}
		n := int(binary.BigEndian.Uint16(b[p:]))
		p += 2
		if len(b) < p+n {
			return h, 0, false
		}
		*dst = string(b[p : p+n])
		p += n
	}
	h.algo = digest.Algo(algo)
	if len(b) < p+4 || binary.BigEndian.Uint32(b[p:]) != crc32.ChecksumIEEE(b[:p]) {
		return h, 0, false
	}
	return h, p + 4, true
}

// ckRecord is one journaled chunk completion.
type ckRecord struct {
	off, ln int64
	sum     uint32
}

// checkpoint is an open journal. Appends are best-effort: a journal write
// failure marks the checkpoint dead and the transfer proceeds unjournaled —
// resume safety comes from re-verification, never from the journal itself.
type checkpoint struct {
	name string
	f    *os.File
	mu   sync.Mutex
	recs int
	dead bool
}

// openCheckpoint opens (or creates) the sidecar at name for the transfer
// identified by want. An existing journal whose header does not match —
// different direction, size, algorithm or aux identity — is reset rather
// than partially believed; a matching one yields its intact records, with
// the id and algorithm the previous session recorded (want.algo "" matches
// any). Record scanning stops at the first torn or corrupt record and
// truncates it away so later appends never interleave with garbage.
func openCheckpoint(name string, want ckHeader) (*checkpoint, []ckRecord, ckHeader, error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, want, err
	}
	ck := &checkpoint{name: name, f: f}
	raw, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		os.Remove(name)
		return nil, nil, want, err
	}

	reset := func() (*checkpoint, []ckRecord, ckHeader, error) {
		if err := ck.rewrite(want); err != nil {
			f.Close()
			return nil, nil, want, err
		}
		return ck, nil, want, nil
	}

	hdr, hlen, ok := decodeCkHeader(raw)
	// The aux identity (server checksum for downloads) is only a mismatch
	// when both sides actually have one: a replica fleet that cannot answer
	// a checksum probe right now — say, mid 503 storm, exactly when resume
	// matters most — must not condemn a valid journal. The per-chunk
	// re-hash against local bytes remains the trust anchor either way.
	auxMismatch := hdr.aux != want.aux && hdr.aux != "" && want.aux != ""
	algoMismatch := hdr.algo != want.algo && want.algo != ""
	if !ok || hdr.dir != want.dir || hdr.size != want.size || algoMismatch || auxMismatch {
		return reset()
	}
	var recs []ckRecord
	good := hlen
	for p := hlen; p+ckRecSize <= len(raw); p += ckRecSize {
		rec := raw[p : p+ckRecSize]
		if binary.BigEndian.Uint32(rec[20:]) != crc32.ChecksumIEEE(rec[:20]) {
			break
		}
		r := ckRecord{
			off: int64(binary.BigEndian.Uint64(rec[0:])),
			ln:  int64(binary.BigEndian.Uint64(rec[8:])),
			sum: binary.BigEndian.Uint32(rec[16:]),
		}
		if r.off < 0 || r.ln <= 0 || r.ln > hdr.size-r.off {
			break
		}
		recs = append(recs, r)
		good = p + ckRecSize
	}
	if good < len(raw) {
		if err := f.Truncate(int64(good)); err != nil {
			return reset()
		}
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		return reset()
	}
	ck.recs = len(recs)
	return ck, recs, hdr, nil
}

// rewrite empties the journal down to a fresh header h.
func (ck *checkpoint) rewrite(h ckHeader) error {
	enc := h.encode()
	if err := ck.f.Truncate(0); err != nil {
		return err
	}
	if _, err := ck.f.WriteAt(enc, 0); err != nil {
		return err
	}
	ck.recs = 0
	_, err := ck.f.Seek(int64(len(enc)), io.SeekStart)
	return err
}

// append journals one completed chunk. Failures (including injected
// torn-write faults) permanently stop journaling for this transfer; the
// already-written prefix stays valid because every record is individually
// checksummed.
func (ck *checkpoint) append(off, ln int64, sum uint32) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if ck.dead {
		return
	}
	var rec [ckRecSize]byte
	binary.BigEndian.PutUint64(rec[0:], uint64(off))
	binary.BigEndian.PutUint64(rec[8:], uint64(ln))
	binary.BigEndian.PutUint32(rec[16:], sum)
	binary.BigEndian.PutUint32(rec[20:], crc32.ChecksumIEEE(rec[:20]))
	write := ckAppendHook
	if write == nil {
		write = func(f *os.File, b []byte) (int, error) { return f.Write(b) }
	}
	if _, err := write(ck.f, rec[:]); err != nil {
		ck.dead = true
		return
	}
	if err := ck.f.Sync(); err != nil {
		ck.dead = true
		return
	}
	ck.recs++
}

// close finishes the journal. keep=true preserves a sidecar that holds
// records so the interrupted transfer can resume; an empty journal is
// always removed — a cancelled transfer that completed nothing must not
// leave an orphaned sidecar behind.
func (ck *checkpoint) close(keep bool) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.f.Close()
	if !keep || ck.recs == 0 {
		os.Remove(ck.name)
	}
}

// chunkSpans returns the chunk grid a transfer will fetch: offset → length
// for every chunk of [start, size) at cs granularity.
func chunkSpans(start, size, cs int64) map[int64]int64 {
	spans := make(map[int64]int64, (size-start+cs-1)/cs)
	for off := start; off < size; off += cs {
		spans[off] = min(cs, size-off)
	}
	return spans
}

// verifyJournal re-checks journaled records against the local bytes at
// src, returning digest-proven chunks keyed by offset. Records that do not
// sit exactly on the current chunk grid are ignored (a geometry change —
// different ChunkSize — makes them useless, not suspect); records whose
// bytes no longer hash to the recorded digest count as verify failures and
// their chunks are re-transferred.
func (c *Client) verifyJournal(recs []ckRecord, src io.ReaderAt, spans map[int64]int64, algo digest.Algo, dir obs.Direction, path string) map[int64]uint32 {
	if len(recs) == 0 {
		return nil
	}
	skip := make(map[int64]uint32, len(recs))
	var resumed int64
	failed := 0
	for _, r := range recs {
		if ln, ok := spans[r.off]; !ok || ln != r.ln {
			continue
		}
		if _, dup := skip[r.off]; dup {
			continue
		}
		b := bufpool.Get(int(r.ln))
		_, err := src.ReadAt(b[:r.ln], r.off)
		match := err == nil && digest.Sum32(algo, b[:r.ln]) == r.sum
		bufpool.Put(b)
		if !match {
			failed++
			c.metrics.resumeVerifyFailures.Add(1)
			continue
		}
		skip[r.off] = r.sum
		resumed += r.ln
	}
	c.metrics.resumedBytes.Add(resumed)
	c.opts.Trace.EmitResume(dir, path, resumed, len(skip), failed)
	return skip
}

// downloadCheckpoint opens the resume journal for a download of size bytes
// into f, verifying any journaled chunks against the file's current
// content. Returns a nil checkpoint when resume is off or the target is
// not a plain file.
func (c *Client) downloadCheckpoint(w io.WriterAt, path string, size int64, algo digest.Algo, want string) (*checkpoint, map[int64]uint32) {
	if !c.opts.Resume {
		return nil, nil
	}
	f, ok := w.(*os.File)
	if !ok || f.Name() == "" {
		return nil, nil
	}
	hdr := ckHeader{dir: 'D', size: size, algo: algo, aux: want}
	ck, recs, _, err := openCheckpoint(f.Name()+CheckpointSuffix, hdr)
	if err != nil {
		return nil, nil
	}
	return ck, c.verifyJournal(recs, f, chunkSpans(0, size, c.opts.ChunkSize), algo, obs.Down, path)
}

// uploadCheckpoint opens the resume journal for an upload of size bytes
// from src to host/path, under whatever algorithm it was kept. The
// previous session's upload id is returned in the header so the resumed
// chunks reattach to the same server-side partial assembly; a fresh journal
// records the caller-proposed id.
func (c *Client) uploadCheckpoint(src io.ReaderAt, host, path string, size int64, proposedID string) (*checkpoint, []ckRecord, ckHeader) {
	hdr := ckHeader{dir: 'U', size: size, aux: host + " " + path, id: proposedID}
	f, ok := src.(*os.File)
	if !c.opts.Resume || !ok || f.Name() == "" {
		return nil, nil, hdr
	}
	ck, recs, got, err := openCheckpoint(f.Name()+CheckpointSuffix, hdr)
	if err != nil {
		return nil, nil, hdr
	}
	return ck, recs, got
}

// bindUploadJournal settles an upload journal on algo, the algorithm the
// probe negotiated: kept under it, its records are verified against the
// current source bytes (an edited source invalidates them chunk by chunk)
// and the proven chunks returned; kept under another, it is discarded and
// the upload starts clean under the same id.
func (c *Client) bindUploadJournal(ck *checkpoint, recs []ckRecord, hdr ckHeader, algo digest.Algo, src io.ReaderAt, probeLen int64, path string) map[int64]uint32 {
	if hdr.algo != algo {
		hdr.algo = algo
		ck.dead = ck.rewrite(hdr) != nil
		return nil
	}
	spans := chunkSpans(probeLen, hdr.size, c.opts.ChunkSize)
	return c.verifyJournal(recs, src, spans, algo, obs.Up, path)
}

// String renders a record for debugging.
func (r ckRecord) String() string {
	return fmt.Sprintf("ck[%d+%d %08x]", r.off, r.ln, r.sum)
}
