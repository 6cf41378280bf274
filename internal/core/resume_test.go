package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"godavix/internal/digest"
	"godavix/internal/httpserv"
	"godavix/internal/metalink"
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
	name := filepath.Join(t.TempDir(), "f.davix-ck")
	hdr := ckHeader{dir: 'D', size: 4096, algo: digest.Adler32}
	raw := hdr.encode()
	raw = append(raw, ckRecBytes(0, 1024, 0x11)...)
	bad := ckRecBytes(1024, 1024, 0x22)
	bad[5] ^= 0xff // record crc no longer matches
	raw = append(raw, bad...)
	raw = append(raw, ckRecBytes(2048, 1024, 0x33)...)
	if err := os.WriteFile(name, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	ck, recs, _, err := openCheckpoint(name, hdr)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.close(false)
	// Scanning stops at the corrupt record: the record after it is NOT
	// believed either, because appends past a torn region cannot be ordered.
	if len(recs) != 1 || recs[0].off != 0 {
		t.Fatalf("recs = %v, want only the record before the corruption", recs)
	}
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

// resumeEnv wires two replicas behind a metalink federation with blob at /f.
func resumeEnv(t *testing.T, copts Options, blob []byte) *testEnv {
	t.Helper()
	e := newEnv(t, copts)
	var urls []metalink.URL
	for i, r := range []string{"dpm1:80", "dpm2:80"} {
		e.startServer(t, r, httpserv.Options{})
		e.stores[r].Put("/f", blob)
		urls = append(urls, metalink.URL{Loc: "http://" + r + "/f", Priority: i + 1})
	}
	ml := &metalink.Metalink{Name: "f", Size: int64(len(blob)), URLs: urls}
	e.startServer(t, "fed:80", httpserv.Options{
		Metalinks: func(string) *metalink.Metalink { return ml },
	})
	return e
}

// cancelAfterChunks builds a trace that cancels the transfer after n
// successful chunk completions, summing the successful lengths into total.
func cancelAfterChunks(n int, cancel context.CancelFunc, total *atomic.Int64) *obs.ClientTrace {
	var done atomic.Int64
	return &obs.ClientTrace{
		ChunkDone: func(dir obs.Direction, path string, idx int, off, ln int64, err error) {
			if err != nil {
				return
			}
			total.Add(ln)
			if cancel != nil && done.Add(1) == int64(n) {
				cancel()
			}
		},
	}
}

func TestDownloadResumeRefetchesOnlyMissing(t *testing.T) {
	const size, cs = 64 << 10, 4 << 10
	blob := make([]byte, size)
	rand.New(rand.NewSource(51)).Read(blob)

	// Phase 1: cancel after 4 chunks; the sidecar must survive.
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	var phase1 atomic.Int64
	e1 := resumeEnv(t, Options{
		MetalinkHost: "fed:80", ChunkSize: cs, MaxStreams: 2, Resume: true,
		Trace: cancelAfterChunks(4, cancel1, &phase1),
	}, blob)
	dst := filepath.Join(t.TempDir(), "f.dat")
	f, err := os.OpenFile(dst, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.client.DownloadMultiStreamTo(ctx1, "dpm1:80", "/f", f); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted download err = %v, want context.Canceled", err)
	}
	f.Close()
	if _, err := os.Stat(dst + CheckpointSuffix); err != nil {
		t.Fatalf("interrupted transfer left no sidecar: %v", err)
	}

	// Phase 2: a fresh client resumes, re-fetching only what phase 1 never
	// journaled.
	var phase2 atomic.Int64
	e2 := resumeEnv(t, Options{
		MetalinkHost: "fed:80", ChunkSize: cs, MaxStreams: 2, Resume: true,
		Trace: cancelAfterChunks(0, nil, &phase2),
	}, blob)
	f2, err := os.OpenFile(dst, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if _, err := e2.client.DownloadMultiStreamTo(context.Background(), "dpm1:80", "/f", f2); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(dst)
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("resumed content mismatch (err=%v)", err)
	}
	m := e2.client.Metrics()
	if m.ResumedBytes == 0 {
		t.Fatal("resume verified nothing despite a journaled phase 1")
	}
	// Skipped chunks emit no ChunkDone: refetched + resumed must tile the
	// object exactly.
	if phase2.Load() != size-m.ResumedBytes {
		t.Fatalf("refetched %d bytes, want %d (resumed %d of %d)", phase2.Load(), size-m.ResumedBytes, m.ResumedBytes, size)
	}
	if _, err := os.Stat(dst + CheckpointSuffix); !os.IsNotExist(err) {
		t.Fatalf("completed transfer left sidecar behind (err=%v)", err)
	}
}

func TestResumeRejectsCorruptLocalBytes(t *testing.T) {
	const size, cs = 32 << 10, 4 << 10
	blob := make([]byte, size)
	rand.New(rand.NewSource(53)).Read(blob)

	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	var phase1 atomic.Int64
	e1 := resumeEnv(t, Options{
		MetalinkHost: "fed:80", ChunkSize: cs, MaxStreams: 1, Resume: true,
		Trace: cancelAfterChunks(3, cancel1, &phase1),
	}, blob)
	dst := filepath.Join(t.TempDir(), "f.dat")
	f, err := os.OpenFile(dst, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.client.DownloadMultiStreamTo(ctx1, "dpm1:80", "/f", f); err == nil {
		t.Fatal("expected interruption")
	}
	f.Close()

	// Flip one journaled byte on disk. The journal still lists the chunk;
	// only the re-hash can notice.
	f3, err := os.OpenFile(dst, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f3.WriteAt([]byte{blob[100] ^ 0xff}, 100); err != nil {
		t.Fatal(err)
	}
	f3.Close()

	e2 := resumeEnv(t, Options{
		MetalinkHost: "fed:80", ChunkSize: cs, MaxStreams: 1, Resume: true,
	}, blob)
	f2, err := os.OpenFile(dst, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if _, err := e2.client.DownloadMultiStreamTo(context.Background(), "dpm1:80", "/f", f2); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(dst)
	if !bytes.Equal(got, blob) {
		t.Fatal("corrupt local chunk survived resume")
	}
	if m := e2.client.Metrics(); m.ResumeVerifyFailures != 1 {
		t.Fatalf("verify failures = %d, want exactly the poisoned chunk", m.ResumeVerifyFailures)
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

	e := resumeEnv(t, Options{
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
	e := resumeEnv(t, Options{
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

func TestUploadResumeReattaches(t *testing.T) {
	const size, cs = 64 << 10, 4 << 10
	blob := make([]byte, size)
	rand.New(rand.NewSource(61)).Read(blob)
	src := filepath.Join(t.TempDir(), "src.dat")
	if err := os.WriteFile(src, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	// Phase 1: cancel after a few fan-out chunks.
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	var phase1 atomic.Int64
	e1 := newEnv(t, Options{
		ChunkSize: cs, MaxStreams: 2, Resume: true,
		Trace: cancelAfterChunks(4, cancel1, &phase1),
	})
	e1.startServer(t, dpm1, httpserv.Options{})
	f, err := os.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.client.UploadMultiStream(ctx1, dpm1, "/up", f, size); err == nil {
		t.Fatal("expected interruption")
	}
	f.Close()
	if _, err := os.Stat(src + CheckpointSuffix); err != nil {
		t.Fatalf("interrupted upload left no sidecar: %v", err)
	}

	// Phase 2: a fresh client on the same fabric resumes against the same
	// server-side partial assembly.
	c2, err := NewClient(Options{Dialer: e1.net, ChunkSize: cs, MaxStreams: 2, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	f2, err := os.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if err := c2.UploadMultiStream(context.Background(), dpm1, "/up", f2, size); err != nil {
		t.Fatal(err)
	}
	got, _, err := e1.stores[dpm1].Get("/up")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("uploaded content mismatch (err=%v)", err)
	}
	if m := c2.Metrics(); m.ResumedBytes == 0 {
		t.Fatal("upload resume re-sent everything despite a journal")
	}
	if _, err := os.Stat(src + CheckpointSuffix); !os.IsNotExist(err) {
		t.Fatalf("completed upload left sidecar behind (err=%v)", err)
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
		e := resumeEnv(t, Options{MetalinkHost: "fed:80", ChunkSize: cs, MaxStreams: 2, Resume: true, VerifyTransfers: true}, blob)
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
