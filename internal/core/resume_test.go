package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"godavix/internal/digest"
	"godavix/internal/faults"
	"godavix/internal/httpserv"
	"godavix/internal/obs"
)

// ckRecBytes encodes one well-formed journal record.
func ckRecBytes(off, ln int64, sum uint32) []byte {
	var rec [ckRecSize]byte
	binary.BigEndian.PutUint64(rec[0:], uint64(off))
	binary.BigEndian.PutUint64(rec[8:], uint64(ln))
	binary.BigEndian.PutUint32(rec[16:], sum)
	binary.BigEndian.PutUint32(rec[20:], crc32.ChecksumIEEE(rec[:20]))
	return rec[:]
}

func TestCheckpointTornRecordTruncated(t *testing.T) {
	name := filepath.Join(t.TempDir(), "f.davix-ck")
	hdr := ckHeader{dir: 'D', size: 4096, algo: digest.Adler32, aux: "sum"}
	raw := hdr.encode()
	raw = append(raw, ckRecBytes(0, 1024, 0x11)...)
	raw = append(raw, ckRecBytes(1024, 1024, 0x22)...)
	// A torn append: half a record, as a crash mid-write would leave it.
	raw = append(raw, ckRecBytes(2048, 1024, 0x33)[:11]...)
	if err := os.WriteFile(name, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	ck, recs, _, err := openCheckpoint(name, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].off != 0 || recs[1].off != 1024 {
		t.Fatalf("recs = %v, want the 2 intact records only", recs)
	}
	// The torn tail is truncated away so the next append never interleaves
	// with garbage.
	ck.append(2048, 1024, 0x33)
	ck.close(true)
	reread, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(hdr.encode()) + 3*ckRecSize; len(reread) != want {
		t.Fatalf("journal length = %d, want %d (torn bytes replaced, not appended past)", len(reread), want)
	}
	ck2, recs2, _, err := openCheckpoint(name, hdr)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.close(false)
	if len(recs2) != 3 || recs2[2].off != 2048 {
		t.Fatalf("recs after repair = %v", recs2)
	}
}

func TestCheckpointRecordCorruptionStopsScan(t *testing.T) {
	badCRC := ckRecBytes(1024, 1024, 0x22)
	badCRC[5] ^= 0xff // record crc no longer matches
	for _, tc := range []struct {
		name string
		bad  []byte
	}{
		{"crc_mismatch", badCRC},
		// off+ln wraps int64 negative, so only a bound written as a
		// subtraction sees the record end past the object.
		{"end_overflows_int64", ckRecBytes(1, math.MaxInt64, 0x22)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			name := filepath.Join(t.TempDir(), "f.davix-ck")
			hdr := ckHeader{dir: 'D', size: 4096, algo: digest.Adler32}
			raw := hdr.encode()
			raw = append(raw, ckRecBytes(0, 1024, 0x11)...)
			raw = append(raw, tc.bad...)
			raw = append(raw, ckRecBytes(2048, 1024, 0x33)...)
			if err := os.WriteFile(name, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			ck, recs, _, err := openCheckpoint(name, hdr)
			if err != nil {
				t.Fatal(err)
			}
			defer ck.close(false)
			// Scanning stops at the bad record: the record after it is NOT
			// believed either, because appends past a torn region cannot
			// be ordered.
			if len(recs) != 1 || recs[0].off != 0 {
				t.Fatalf("recs = %v, want only the record before the bad one", recs)
			}
		})
	}
}

// FuzzCheckpointScan holds the journal scanner against a plain prefix
// loop: a valid header, three records with correct CRCs built from the
// fuzzed fields, then fuzzed trailing bytes. The scanner must return
// exactly the longest prefix of in-bounds, CRC-intact 24-byte records,
// truncate the file to header + 24·n bytes, and return the same records
// when the journal is reopened.
func FuzzCheckpointScan(f *testing.F) {
	const size = 4096
	torn := ckRecBytes(2048, 1024, 0x33)[:11]
	badCRC := ckRecBytes(1024, 1024, 0x22)
	badCRC[5] ^= 0xff
	// The table cases above.
	f.Add(int64(0), int64(1024), uint32(0x11), int64(1024), int64(1024), uint32(0x22), int64(2048), int64(1024), uint32(0x33), torn)
	f.Add(int64(0), int64(1024), uint32(0x11), int64(1), int64(math.MaxInt64), uint32(0x22), int64(2048), int64(1024), uint32(0x33), []byte(nil))
	f.Add(int64(0), int64(1024), uint32(0x11), int64(2048), int64(1024), uint32(0x33), int64(3072), int64(1024), uint32(0x44),
		append(badCRC, ckRecBytes(3072, 1024, 0x44)...))
	// Boundary values in every off/ln slot, followed by a valid record in
	// the tail.
	bounds := []int64{0, -1, size, math.MaxInt64}
	for _, off := range bounds {
		for _, ln := range bounds {
			f.Add(int64(0), int64(1024), uint32(1), off, ln, uint32(2), ln, off, uint32(3), ckRecBytes(0, size, 4))
		}
	}

	f.Fuzz(func(t *testing.T, off0, ln0 int64, sum0 uint32, off1, ln1 int64, sum1 uint32, off2, ln2 int64, sum2 uint32, tail []byte) {
		hdr := ckHeader{dir: 'D', size: size, algo: digest.Adler32, aux: "sum"}
		raw := hdr.encode()
		hlen := len(raw)
		raw = append(raw, ckRecBytes(off0, ln0, sum0)...)
		raw = append(raw, ckRecBytes(off1, ln1, sum1)...)
		raw = append(raw, ckRecBytes(off2, ln2, sum2)...)
		raw = append(raw, tail...)

		// The oracle: walk whole 24-byte slots until one fails its CRC or
		// does not lie inside [0, size); uint64 sums cannot wrap for two
		// non-negative int64s.
		var want []ckRecord
		for p := hlen; p+ckRecSize <= len(raw); p += ckRecSize {
			rec := raw[p : p+ckRecSize]
			if crc32.ChecksumIEEE(rec[:20]) != binary.BigEndian.Uint32(rec[20:]) {
				break
			}
			r := ckRecord{
				off: int64(binary.BigEndian.Uint64(rec[0:])),
				ln:  int64(binary.BigEndian.Uint64(rec[8:])),
				sum: binary.BigEndian.Uint32(rec[16:]),
			}
			if r.off < 0 || r.ln <= 0 || uint64(r.off)+uint64(r.ln) > size {
				break
			}
			want = append(want, r)
		}

		name := filepath.Join(t.TempDir(), "f.davix-ck")
		if err := os.WriteFile(name, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, recs, _, err := openCheckpoint(name, hdr)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if r.off < 0 || r.ln <= 0 || r.off >= size || r.ln > size-r.off {
				t.Fatalf("record %v lies outside [0, %d)", r, size)
			}
		}
		if !slices.Equal(recs, want) {
			t.Fatalf("recs = %v, want the valid prefix %v", recs, want)
		}
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		if wantLen := int64(hlen + ckRecSize*len(want)); fi.Size() != wantLen {
			t.Fatalf("journal is %d bytes, want header + %d records = %d", fi.Size(), len(want), wantLen)
		}
		ck.f.Close()
		ck2, recs2, _, err := openCheckpoint(name, hdr)
		if err != nil {
			t.Fatal(err)
		}
		ck2.f.Close()
		if !slices.Equal(recs2, want) {
			t.Fatalf("reopened recs = %v, want %v", recs2, want)
		}
	})
}

func TestCheckpointHeaderIdentity(t *testing.T) {
	dir := t.TempDir()

	// A journal from a different transfer identity is reset wholesale.
	name := filepath.Join(dir, "a.davix-ck")
	old := ckHeader{dir: 'U', size: 4096, algo: digest.Adler32, aux: "h /p"}
	raw := append(old.encode(), ckRecBytes(0, 1024, 0x11)...)
	if err := os.WriteFile(name, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, recs, _, err := openCheckpoint(name, ckHeader{dir: 'D', size: 4096, algo: digest.Adler32, aux: "h /p"})
	if err != nil {
		t.Fatal(err)
	}
	ck.close(false)
	if len(recs) != 0 {
		t.Fatalf("direction flip kept %v", recs)
	}

	// An empty aux on either side is tolerated: a fleet that cannot answer a
	// checksum probe mid-outage must not condemn a valid journal.
	name2 := filepath.Join(dir, "b.davix-ck")
	old2 := ckHeader{dir: 'D', size: 4096, algo: digest.Adler32, aux: "sha1:abc"}
	if err := os.WriteFile(name2, append(old2.encode(), ckRecBytes(0, 1024, 0x11)...), 0o644); err != nil {
		t.Fatal(err)
	}
	ck2, recs2, _, err := openCheckpoint(name2, ckHeader{dir: 'D', size: 4096, algo: digest.Adler32, aux: ""})
	if err != nil {
		t.Fatal(err)
	}
	ck2.close(false)
	if len(recs2) != 1 {
		t.Fatalf("empty-aux probe reset a valid journal: recs = %v", recs2)
	}

	// Two real but different checksums: the object changed, reset.
	name3 := filepath.Join(dir, "c.davix-ck")
	if err := os.WriteFile(name3, append(old2.encode(), ckRecBytes(0, 1024, 0x11)...), 0o644); err != nil {
		t.Fatal(err)
	}
	ck3, recs3, _, err := openCheckpoint(name3, ckHeader{dir: 'D', size: 4096, algo: digest.Adler32, aux: "sha1:other"})
	if err != nil {
		t.Fatal(err)
	}
	ck3.close(false)
	if len(recs3) != 0 {
		t.Fatalf("checksum mismatch kept %v", recs3)
	}
}

// chunkRec is one successful ChunkDone observation.
type chunkRec struct {
	idx     int
	off, ln int64
}

// chunkLog collects the successful chunk completions of one transfer
// direction; chunk callbacks run concurrently, hence the lock.
type chunkLog struct {
	mu   sync.Mutex
	recs []chunkRec
}

// trace records dir's successful completions and, when cancelAfter > 0,
// cancels the transfer as the cancelAfter-th one completes: a
// deterministic "pull the plug mid-transfer" switch.
func (l *chunkLog) trace(dir obs.Direction, cancelAfter int, cancel context.CancelFunc) *obs.ClientTrace {
	return &obs.ClientTrace{
		ChunkDone: func(d obs.Direction, path string, idx int, off, ln int64, err error) {
			if d != dir || err != nil {
				return
			}
			l.mu.Lock()
			l.recs = append(l.recs, chunkRec{idx: idx, off: off, ln: ln})
			n := len(l.recs)
			l.mu.Unlock()
			if cancelAfter > 0 && n == cancelAfter {
				cancel()
			}
		},
	}
}

// bytes sums the recorded chunk lengths; fanOnly leaves out the upload
// probe (idx 0), which every attempt re-sends and none journals.
func (l *chunkLog) bytes(fanOnly bool) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, r := range l.recs {
		if !fanOnly || r.idx != 0 {
			n += r.ln
		}
	}
	return n
}

// resumeClient is the self-healing client the resume tests drive on e's
// fabric: a retry budget, checkpointed resume, end-to-end verification
// when verify is set, and multi-replica downloads when e has a
// federation. Without verify, journaling alone must still turn the chunk
// digests on. Faults expire by count, not time, so a 1 ms backoff only
// keeps the storms cheap.
func resumeClient(t *testing.T, e *testEnv, cs int64, verify bool, trace *obs.ClientTrace) *Client {
	t.Helper()
	o := Options{
		Dialer: e.net, ChunkSize: cs, MaxStreams: 4,
		Retry: RetryPolicy{Attempts: 3, BaseBackoff: time.Millisecond}, VerifyTransfers: verify, Resume: true,
		Trace: trace,
	}
	if e.srvs["fed:80"] != nil {
		o.MetalinkHost = "fed:80"
	}
	c, err := NewClient(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestDownloadResumeRefetchesOnlyMissing interrupts a download, may flip a
// byte of its first journaled chunk on disk, and resumes it with a fresh
// client. The seeded rows also inject, from their seed: a replica serving
// corrupt bytes under pristine integrity headers, a 503 storm and
// mid-chunk connection drops (a later pick on the same replica replaces
// an earlier fault) during the interrupted run, then a fresh 503 storm
// during the resume. The fault-free rows run without VerifyTransfers, so
// the journal alone must produce and re-check the chunk digests.
func TestDownloadResumeRefetchesOnlyMissing(t *testing.T) {
	const size, cs = 64 << 10, 4 << 10
	for _, tc := range []struct {
		name   string
		seed   int64
		faults bool // inject the seeded replica faults, under VerifyTransfers
		flip   bool // corrupt the first journaled chunk on disk
	}{
		{"no_faults", 51, false, false},
		{"corrupt_local_chunk", 53, false, true},
		{"seed_17", 17, true, true},
		{"seed_42", 42, true, true},
		{"seed_99", 99, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blob := make([]byte, size)
			rand.New(rand.NewSource(tc.seed)).Read(blob)
			rng := rand.New(rand.NewSource(tc.seed ^ 0x5eed))
			e := replicaEnv(t, Options{}, blob)
			fault := func(f faults.Fault) {
				rep := fedReplicas[rng.Intn(len(fedReplicas))]
				if tc.faults {
					e.faults[rep].Set("/f", f)
				}
			}
			// Every row draws the whole schedule, so a row's seed alone
			// fixes its interruption point.
			fault(faults.Fault{CorruptXOR: 0x5a, CorruptAt: rng.Int63n(size), Remaining: 2 + rng.Intn(3)})
			fault(faults.Fault{Status: 503, Remaining: 1 + rng.Intn(3)})
			fault(faults.Fault{DropAfter: 1 + rng.Int63n(cs), Remaining: 1 + rng.Intn(2)})
			cancelAfter := 3 + rng.Intn(5)

			dst := filepath.Join(t.TempDir(), "f.dat")
			f, err := os.OpenFile(dst, os.O_RDWR|os.O_CREATE, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ctx1, cancel1 := context.WithCancel(context.Background())
			defer cancel1()
			var log1 chunkLog
			c1 := resumeClient(t, e, cs, tc.faults, log1.trace(obs.Down, cancelAfter, cancel1))
			// A cancel that lands while a chunk is failing over reports the
			// cancellation too, not the replicas' faults.
			_, err = c1.DownloadMultiStreamTo(ctx1, "dpm1:80", "/f", f)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted download err = %v, want context.Canceled", err)
			}
			if len(log1.recs) == 0 {
				t.Fatal("no chunk completed before the interruption")
			}
			if _, err := os.Stat(dst + CheckpointSuffix); err != nil {
				t.Fatalf("interrupted transfer left no sidecar: %v", err)
			}

			// The journal still lists the flipped chunk; only the re-hash
			// can notice, and that chunk alone must be fetched again.
			var flipped int64
			if tc.flip {
				bad := log1.recs[0]
				at := bad.off + bad.ln/2
				b := []byte{0}
				if _, err := f.ReadAt(b, at); err != nil {
					t.Fatal(err)
				}
				b[0] ^= 0xff
				if _, err := f.WriteAt(b, at); err != nil {
					t.Fatal(err)
				}
				flipped = bad.ln
			}

			// A fresh client carries nothing over but the sidecar and the
			// partial file.
			fault(faults.Fault{Status: 503, Remaining: 2})
			var log2 chunkLog
			c2 := resumeClient(t, e, cs, tc.faults, log2.trace(obs.Down, 0, nil))
			if _, err := c2.DownloadMultiStreamTo(context.Background(), "dpm1:80", "/f", f); err != nil {
				t.Fatalf("resume failed: %v", err)
			}
			got, err := os.ReadFile(dst)
			if err != nil || !bytes.Equal(got, blob) {
				t.Fatalf("resumed content differs from the source (err=%v)", err)
			}
			m := c2.Metrics()
			if want := log1.bytes(false) - flipped; m.ResumedBytes != want {
				t.Errorf("ResumedBytes = %d, want %d (phase-1 chunks %d B less the flipped %d B)",
					m.ResumedBytes, want, log1.bytes(false), flipped)
			}
			wantFailures := int64(0)
			if tc.flip {
				wantFailures = 1
			}
			if m.ResumeVerifyFailures != wantFailures {
				t.Errorf("ResumeVerifyFailures = %d, want %d", m.ResumeVerifyFailures, wantFailures)
			}
			// Skipped chunks emit no ChunkDone: re-fetched and resumed
			// bytes must tile the object exactly.
			if refetched := log2.bytes(false); refetched != size-m.ResumedBytes {
				t.Errorf("re-fetched %d B, want %d (resumed %d of %d)", refetched, size-m.ResumedBytes, m.ResumedBytes, size)
			}
			if _, err := os.Stat(dst + CheckpointSuffix); !os.IsNotExist(err) {
				t.Errorf("completed transfer left its sidecar behind (err=%v)", err)
			}
		})
	}
}

func TestCheckpointAppendFaultKeepsTransferAlive(t *testing.T) {
	const size, cs = 32 << 10, 4 << 10
	blob := make([]byte, size)
	rand.New(rand.NewSource(57)).Read(blob)

	// Every journal append fails. The transfer must neither notice nor leave
	// a sidecar behind.
	ckAppendHook = func(f *os.File, rec []byte) (int, error) {
		return 0, errors.New("injected torn write")
	}
	defer func() { ckAppendHook = nil }()

	e := replicaEnv(t, Options{
		MetalinkHost: "fed:80", ChunkSize: cs, MaxStreams: 2, Resume: true,
	}, blob)
	dst := filepath.Join(t.TempDir(), "f.dat")
	f, err := os.OpenFile(dst, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := e.client.DownloadMultiStreamTo(context.Background(), "dpm1:80", "/f", f); err != nil {
		t.Fatalf("transfer failed because journaling failed: %v", err)
	}
	got, _ := os.ReadFile(dst)
	if !bytes.Equal(got, blob) {
		t.Fatal("content mismatch")
	}
	if _, err := os.Stat(dst + CheckpointSuffix); !os.IsNotExist(err) {
		t.Fatalf("dead journal left a sidecar (err=%v)", err)
	}
}

func TestCancelBeforeProgressLeavesNoSidecar(t *testing.T) {
	blob := make([]byte, 16<<10)
	rand.New(rand.NewSource(59)).Read(blob)
	e := replicaEnv(t, Options{
		MetalinkHost: "fed:80", ChunkSize: 4 << 10, MaxStreams: 2, Resume: true,
	}, blob)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // dead before the first chunk can complete
	dst := filepath.Join(t.TempDir(), "f.dat")
	f, err := os.OpenFile(dst, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := e.client.DownloadMultiStreamTo(ctx, "dpm1:80", "/f", f); err == nil {
		t.Fatal("expected cancellation")
	}
	if _, err := os.Stat(dst + CheckpointSuffix); !os.IsNotExist(err) {
		t.Fatalf("zero-progress cancel left a sidecar (err=%v)", err)
	}
}

// TestUploadResumeReattaches interrupts an upload after a seeded number of
// acknowledged chunks and resumes it with a fresh client, which must
// reattach to the server-side partial assembly and re-send only the
// chunks the journal cannot prove. The seeded rows resume under a 503
// storm on the destination with VerifyTransfers; the fault-free row runs
// without it, on the journal's digests alone.
func TestUploadResumeReattaches(t *testing.T) {
	const size, cs = 64 << 10, 4 << 10
	for _, tc := range []struct {
		name  string
		seed  int64
		storm bool // 503 storm during the resume, under VerifyTransfers
	}{
		{"no_faults", 54, false},
		{"seed_17", 17, true},
		{"seed_42", 42, true},
		{"seed_99", 99, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blob := make([]byte, size)
			rand.New(rand.NewSource(tc.seed + 7)).Read(blob)
			rng := rand.New(rand.NewSource(tc.seed ^ 0x0b5e))
			e := newEnv(t, Options{})
			e.startServer(t, dpm1, httpserv.Options{})
			src := filepath.Join(t.TempDir(), "src.dat")
			if err := os.WriteFile(src, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(src)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()

			ctx1, cancel1 := context.WithCancel(context.Background())
			defer cancel1()
			var log1 chunkLog
			c1 := resumeClient(t, e, cs, tc.storm, log1.trace(obs.Up, 3+rng.Intn(3), cancel1))
			if err := c1.UploadMultiStream(ctx1, dpm1, "/up", f, size); !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted upload err = %v, want context.Canceled", err)
			}
			if _, err := os.Stat(src + CheckpointSuffix); err != nil {
				t.Fatalf("interrupted upload left no sidecar: %v", err)
			}

			if tc.storm {
				e.faults[dpm1].Set("/up", faults.Fault{Status: 503, Remaining: 2})
			}
			var log2 chunkLog
			c2 := resumeClient(t, e, cs, tc.storm, log2.trace(obs.Up, 0, nil))
			if err := c2.UploadMultiStream(context.Background(), dpm1, "/up", f, size); err != nil {
				t.Fatalf("upload resume failed: %v", err)
			}
			m := c2.Metrics()
			if want := log1.bytes(true); m.ResumedBytes != want {
				t.Errorf("ResumedBytes = %d, want the %d B of phase-1 fan-out chunks", m.ResumedBytes, want)
			}
			if resent := log2.bytes(false); resent != size-m.ResumedBytes {
				t.Errorf("re-sent %d B, want %d (resumed %d of %d)", resent, size-m.ResumedBytes, m.ResumedBytes, size)
			}
			if _, err := os.Stat(src + CheckpointSuffix); !os.IsNotExist(err) {
				t.Errorf("completed upload left its sidecar behind (err=%v)", err)
			}
			// What landed must be the source, read back by a plain client
			// (no resume).
			plain, err := NewClient(Options{Dialer: e.net})
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close()
			got, err := plain.Get(context.Background(), dpm1, "/up")
			if err != nil || !bytes.Equal(got, blob) {
				t.Fatalf("uploaded object differs from the source (err=%v)", err)
			}
		})
	}
}

// TestResumeAcrossAlgorithmSwitch: a sidecar kept under adler32 — by an
// adler32-era client, or against a server that has since learned crc32c —
// meets a transfer that negotiates crc32c. Its sums cannot feed a crc32c
// rollup, so it is discarded and the transfer starts clean, verified and
// byte-exact, in both directions.
func TestResumeAcrossAlgorithmSwitch(t *testing.T) {
	const size, cs = 64 << 10, 4 << 10
	blob := make([]byte, size)
	rand.New(rand.NewSource(63)).Read(blob)
	adler := func(b []byte) uint32 { return digest.Sum32(digest.Adler32, b) }
	// journal writes an adler32 sidecar for name holding the first half of
	// the chunks at off0, off0+cs, ...
	journal := func(t *testing.T, name string, hdr ckHeader, off0 int64) {
		t.Helper()
		ck, _, _, err := openCheckpoint(name+CheckpointSuffix, hdr)
		if err != nil {
			t.Fatal(err)
		}
		for off := off0; off < size/2; off += cs {
			ck.append(off, cs, adler(blob[off:off+cs]))
		}
		ck.close(true)
	}
	check := func(t *testing.T, c *Client, name string, stored []byte) {
		t.Helper()
		if !bytes.Equal(stored, blob) {
			t.Fatal("resumed transfer is not byte-exact")
		}
		// Discarded, not re-checked: no record was held against the bytes.
		if m := c.Metrics(); m.TransfersVerified != 1 || m.ResumedBytes != 0 || m.ResumeVerifyFailures != 0 {
			t.Fatalf("TransfersVerified = %d, ResumedBytes = %d, ResumeVerifyFailures = %d, want 1, 0 and 0 (a clean start)",
				m.TransfersVerified, m.ResumedBytes, m.ResumeVerifyFailures)
		}
		if _, err := os.Stat(name + CheckpointSuffix); !os.IsNotExist(err) {
			t.Fatalf("completed transfer left its sidecar behind (err=%v)", err)
		}
	}

	t.Run("download", func(t *testing.T) {
		e := replicaEnv(t, Options{MetalinkHost: "fed:80", ChunkSize: cs, MaxStreams: 2, Resume: true, VerifyTransfers: true}, blob)
		dst := filepath.Join(t.TempDir(), "f.dat")
		part := append(bytes.Clone(blob[:size/2]), make([]byte, size/2)...)
		if err := os.WriteFile(dst, part, 0o644); err != nil {
			t.Fatal(err)
		}
		journal(t, dst, ckHeader{dir: 'D', size: size, algo: digest.Adler32, aux: fmt.Sprintf("adler32:%08x", adler(blob))}, 0)
		f, err := os.OpenFile(dst, os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := e.client.DownloadMultiStreamTo(context.Background(), "dpm1:80", "/f", f); err != nil {
			t.Fatal(err)
		}
		got, _ := os.ReadFile(dst)
		check(t, e.client, dst, got)
	})

	t.Run("upload", func(t *testing.T) {
		e := newEnv(t, Options{ChunkSize: cs, MaxStreams: 2, Resume: true, VerifyTransfers: true})
		e.startServer(t, dpm1, httpserv.Options{})
		src := filepath.Join(t.TempDir(), "src.dat")
		if err := os.WriteFile(src, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		journal(t, src, ckHeader{dir: 'U', size: size, algo: digest.Adler32, aux: dpm1 + " /up", id: "adler-era"}, cs)
		f, err := os.Open(src)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := e.client.UploadMultiStream(context.Background(), dpm1, "/up", f, size); err != nil {
			t.Fatal(err)
		}
		got, _, _ := e.stores[dpm1].Get("/up")
		check(t, e.client, src, got)
	})
}
