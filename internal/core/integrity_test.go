package core

import (
	"bytes"
	"context"
	"crypto/md5"
	"errors"
	"fmt"
	"hash/adler32"
	"net/http"
	"sync"
	"testing"

	"godavix/internal/faults"
	"godavix/internal/httpserv"
	"godavix/internal/metalink"
	"godavix/internal/storage"
)

// TestDownloadVerifiedCatchesCorruption proves the inline-integrity claim
// end to end: the server flips exactly one bit of the payload while its
// X-Checksum and Digest headers keep advertising the pristine content, and
// the verified multi-stream download must fail with ErrChecksumMismatch
// naming a byte span that contains the flipped byte. A non-verifying
// client (below) swallows the same corruption silently — that contrast is
// the whole point of VerifyTransfers.
func TestDownloadVerifiedCatchesCorruption(t *testing.T) {
	const chunk = 4 << 10
	const corruptAt = 9000 // inside chunk 2: [8192, 12288)
	e := newEnv(t, Options{Strategy: StrategyNone, ChunkSize: chunk, VerifyTransfers: true})
	e.startServer(t, dpm1, httpserv.Options{})
	blob := uploadBlob(48<<10, 47)
	e.stores[dpm1].Put("/f", blob)
	e.faults[dpm1].Set("/f", faults.Fault{CorruptXOR: 0x01, CorruptAt: corruptAt})

	w := &bufWriterAt{b: make([]byte, len(blob))}
	_, err := e.client.DownloadMultiStreamTo(context.Background(), dpm1, "/f", w)
	if !errors.Is(err, ErrChecksumMismatch) {
		t.Fatalf("err = %v, want ErrChecksumMismatch", err)
	}
	var ce *ChecksumError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want a *ChecksumError inside", err)
	}
	if corruptAt < ce.Off || corruptAt >= ce.Off+ce.Length {
		t.Fatalf("reported span [%d,%d) does not contain the flipped byte at %d",
			ce.Off, ce.Off+ce.Length, corruptAt)
	}
	// The per-range Digest pinpointed the chunk, not just the object.
	if ce.Length >= int64(len(blob)) {
		t.Fatalf("span [%d,%d) is the whole object; want chunk-exact", ce.Off, ce.Off+ce.Length)
	}
	if m := e.client.Metrics(); m.ChecksumMismatches == 0 {
		t.Fatal("ChecksumMismatches not counted")
	}
}

// TestDownloadUnverifiedMissesCorruption is the control: without
// VerifyTransfers the same single-bit flip sails through, which is exactly
// why the verified path exists.
func TestDownloadUnverifiedMissesCorruption(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone, ChunkSize: 4 << 10})
	e.startServer(t, dpm1, httpserv.Options{})
	blob := uploadBlob(48<<10, 48)
	e.stores[dpm1].Put("/f", blob)
	e.faults[dpm1].Set("/f", faults.Fault{CorruptXOR: 0x01, CorruptAt: 9000})

	w := &bufWriterAt{b: make([]byte, len(blob))}
	if _, err := e.client.DownloadMultiStreamTo(context.Background(), dpm1, "/f", w); err != nil {
		t.Fatalf("unverified download failed: %v", err)
	}
	if bytes.Equal(w.b, blob) {
		t.Fatal("corruption fault did not corrupt anything")
	}
}

// TestDownloadVerifiedPasses checks the happy path: chunk digests combine
// into the whole-object adler32, match the server checksum, and the
// payload counter sees every byte once.
func TestDownloadVerifiedPasses(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone, ChunkSize: 4 << 10, VerifyTransfers: true})
	e.startServer(t, dpm1, httpserv.Options{})
	blob := uploadBlob(48<<10, 49)
	e.stores[dpm1].Put("/f", blob)

	w := &bufWriterAt{b: make([]byte, len(blob))}
	n, err := e.client.DownloadMultiStreamTo(context.Background(), dpm1, "/f", w)
	if err != nil || n != int64(len(blob)) {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if !bytes.Equal(w.b, blob) {
		t.Fatal("content mismatch")
	}
	m := e.client.Metrics()
	if m.TransfersVerified != 1 {
		t.Fatalf("TransfersVerified = %d, want 1", m.TransfersVerified)
	}
	if m.ChecksumMismatches != 0 {
		t.Fatalf("ChecksumMismatches = %d, want 0", m.ChecksumMismatches)
	}
	// Every payload byte is counted exactly once — the payload counter
	// must reconcile with the object size, not double-count.
	if m.PooledBytesDown != int64(len(blob)) {
		t.Fatalf("PooledBytesDown = %d, want %d", m.PooledBytesDown, len(blob))
	}
}

// TestPutReaderVerified streams an upload through the digest tee: the
// server echoes the Digest of what it stored, and the client compares it
// against the sum it accumulated inline.
func TestPutReaderVerified(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone, VerifyTransfers: true})
	e.startServer(t, dpm1, httpserv.Options{})
	blob := uploadBlob(128<<10, 50)

	err := e.client.PutReader(context.Background(), dpm1, "/up", bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := e.stores[dpm1].Get("/up")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("stored %d bytes err=%v", len(got), err)
	}
	m := e.client.Metrics()
	if m.TransfersVerified != 1 {
		t.Fatalf("TransfersVerified = %d, want 1", m.TransfersVerified)
	}
}

// TestUploadMultiStreamInlineDigest runs the chunked upload with
// verification on: per-chunk sums combine into the whole-object adler32
// with zero re-reads of the source, and the assembled object matches.
func TestUploadMultiStreamInlineDigest(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone, ChunkSize: 4 << 10, VerifyTransfers: true})
	e.startServer(t, dpm1, httpserv.Options{})
	blob := uploadBlob(40<<10, 51)

	err := e.client.UploadMultiStream(context.Background(), dpm1, "/multi", bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	got, inf, err := e.stores[dpm1].Get("/multi")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("stored %d bytes err=%v", len(got), err)
	}
	if inf.Checksum != storage.Checksum(blob) {
		t.Fatalf("server checksum %q, want %q", inf.Checksum, storage.Checksum(blob))
	}
}

// TestBytePathAccountingCoversEveryChunkReader extends the reconciliation
// above to the entry points that read chunks into memory: the in-memory
// download and both modes of the pull copy must count every source byte
// exactly once, like DownloadMultiStreamTo does.
func TestBytePathAccountingCoversEveryChunkReader(t *testing.T) {
	const dst = "dpm2:80"
	cases := []struct {
		name       string
		maxPerHost int // 1 makes the copy the serial pipe
		run        func(ctx context.Context, c *Client) error
	}{
		{"DownloadMultiStream", 0, func(ctx context.Context, c *Client) error {
			_, err := c.DownloadMultiStream(ctx, dpm1, "/f")
			return err
		}},
		{"CopyStream/parallel", 0, func(ctx context.Context, c *Client) error {
			return c.CopyStream(ctx, dpm1, "/f", "http://"+dst+"/copy")
		}},
		{"CopyStream/pipe", 1, func(ctx context.Context, c *Client) error {
			return c.CopyStream(ctx, dpm1, "/f", "http://"+dst+"/copy")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, Options{ChunkSize: 4 << 10, MaxPerHost: tc.maxPerHost})
			blob := uploadBlob(48<<10+100, 52)
			e.startServer(t, dpm1, httpserv.Options{Metalinks: func(string) *metalink.Metalink {
				return &metalink.Metalink{Name: "f", Size: int64(len(blob)),
					URLs: []metalink.URL{{Loc: "http://dpm1:80/f", Priority: 1}}}
			}})
			e.startServer(t, dst, httpserv.Options{})
			e.stores[dpm1].Put("/f", blob)

			if err := tc.run(context.Background(), e.client); err != nil {
				t.Fatal(err)
			}
			m := e.client.Metrics()
			if m.PooledBytesDown != int64(len(blob)) {
				t.Fatalf("PooledBytesDown = %d, want %d", m.PooledBytesDown, len(blob))
			}
		})
	}
}

// TestDownloadMultiStreamVerifiesWithoutMetalinkHash: a Metalink without a
// <hash> must not switch verification off — like DownloadMultiStreamTo, the
// in-memory download falls back to the replica's HEAD checksum, so a flipped
// bit fails the transfer naming the chunk that holds it.
func TestDownloadMultiStreamVerifiesWithoutMetalinkHash(t *testing.T) {
	const chunk = 4 << 10
	const corruptAt = 9000 // inside chunk 2: [8192, 12288)
	e := newEnv(t, Options{MetalinkHost: "fed:80", ChunkSize: chunk, VerifyTransfers: true})
	e.startServer(t, dpm1, httpserv.Options{})
	blob := uploadBlob(48<<10, 53)
	e.stores[dpm1].Put("/f", blob)
	e.startServer(t, "fed:80", httpserv.Options{Metalinks: func(string) *metalink.Metalink {
		return &metalink.Metalink{Name: "f", Size: int64(len(blob)), // no Checksum
			URLs: []metalink.URL{{Loc: "http://dpm1:80/f", Priority: 1}}}
	}})
	ctx := context.Background()

	got, err := e.client.DownloadMultiStream(ctx, dpm1, "/f")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("pristine download: %d bytes err=%v", len(got), err)
	}
	if v := e.client.Metrics().TransfersVerified; v != 1 {
		t.Fatalf("TransfersVerified = %d, want 1 (verified against the HEAD checksum)", v)
	}

	e.faults[dpm1].Set("/f", faults.Fault{CorruptXOR: 0x01, CorruptAt: corruptAt})
	_, err = e.client.DownloadMultiStream(ctx, dpm1, "/f")
	var ce *ChecksumError
	if !errors.Is(err, ErrChecksumMismatch) || !errors.As(err, &ce) {
		t.Fatalf("err = %v, want ErrChecksumMismatch carrying a *ChecksumError", err)
	}
	if ce.Off != 2*chunk || ce.Length != chunk {
		t.Fatalf("reported span [%d,%d), want chunk 2 = [%d,%d)", ce.Off, ce.Off+ce.Length, 2*chunk, 3*chunk)
	}
}

// TestDownloadMultiStreamVerifiesNonCombinableMetalinkHash: per-chunk
// digests cannot fold into md5, and a replica's per-range Digest only vouches
// for the bytes that replica holds. A stale replica — one bit off the object
// the Metalink describes, yet perfectly consistent with itself — must still
// fail the in-memory download against the Metalink's md5.
func TestDownloadMultiStreamVerifiesNonCombinableMetalinkHash(t *testing.T) {
	e := newEnv(t, Options{MetalinkHost: "fed:80", ChunkSize: 4 << 10, VerifyTransfers: true})
	e.startServer(t, dpm1, httpserv.Options{})
	blob := uploadBlob(48<<10, 55)
	e.stores[dpm1].Put("/f", blob)
	e.startServer(t, "fed:80", httpserv.Options{Metalinks: func(string) *metalink.Metalink {
		return &metalink.Metalink{Name: "f", Size: int64(len(blob)),
			Checksum: fmt.Sprintf("md5:%x", md5.Sum(blob)),
			URLs:     []metalink.URL{{Loc: "http://dpm1:80/f", Priority: 1}}}
	}})
	ctx := context.Background()

	got, err := e.client.DownloadMultiStream(ctx, dpm1, "/f")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("pristine download: %d bytes err=%v", len(got), err)
	}
	if v := e.client.Metrics().TransfersVerified; v != 1 {
		t.Fatalf("TransfersVerified = %d, want 1 (per-chunk and whole-object passes count once)", v)
	}

	stale := bytes.Clone(blob)
	stale[9000] ^= 0x01
	e.stores[dpm1].Put("/f", stale)
	_, err = e.client.DownloadMultiStream(ctx, dpm1, "/f")
	var ce *ChecksumError
	if !errors.Is(err, ErrChecksumMismatch) || !errors.As(err, &ce) || ce.Algo != "md5" {
		t.Fatalf("err = %v, want an md5 ErrChecksumMismatch", err)
	}
	m := e.client.Metrics()
	if m.TransfersVerified != 1 || m.ChecksumMismatches != 1 {
		t.Fatalf("TransfersVerified = %d, ChecksumMismatches = %d, want 1 and 1", m.TransfersVerified, m.ChecksumMismatches)
	}
}

// TestCorruptReplicaChunkFailsOver: with two replicas every chunk is
// compared inline against the server's per-range Digest, so a replica
// serving a flipped bit costs that chunk one retry on the other replica —
// not the transfer. It holds whatever algorithm the Metalink names, and in
// a mixed fleet where the other replica is an adler32-only peer that
// commits to no per-range digest at all.
func TestCorruptReplicaChunkFailsOver(t *testing.T) {
	const chunk = 4 << 10
	blob := uploadBlob(32<<10, 54)
	rows := []struct {
		name     string
		checksum string // the Metalink's
		legacy   bool   // dpm1 is an adler32-only peer
	}{
		{"crc32c", storage.Checksum(blob), false},
		{"adler32", fmt.Sprintf("adler32:%08x", adler32.Checksum(blob)), false},
		{"mixed fleet", storage.Checksum(blob), true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			e := newEnv(t, Options{MetalinkHost: "fed:80", ChunkSize: chunk, MaxPerHost: 1, VerifyTransfers: true})
			if row.legacy {
				e.startAdlerOnly(t, dpm1)
			} else {
				e.startServer(t, dpm1, httpserv.Options{})
			}
			e.startServer(t, "dpm2:80", httpserv.Options{})
			for _, r := range []string{dpm1, "dpm2:80"} {
				e.stores[r].Put("/f", blob)
			}
			e.startServer(t, "fed:80", httpserv.Options{Metalinks: func(string) *metalink.Metalink {
				return &metalink.Metalink{Name: "f", Size: int64(len(blob)), Checksum: row.checksum,
					URLs: []metalink.URL{
						{Loc: "http://dpm1:80/f", Priority: 1},
						{Loc: "http://dpm2:80/f", Priority: 2},
					}}
			}})
			// Odd chunks start on the second replica; it corrupts chunk 1.
			e.faults["dpm2:80"].Set("/f", faults.Fault{CorruptXOR: 0x80, CorruptAt: chunk + 17})

			w := &bufWriterAt{b: make([]byte, len(blob))}
			n, err := e.client.DownloadMultiStreamTo(context.Background(), dpm1, "/f", w)
			if err != nil || n != int64(len(blob)) {
				t.Fatalf("n=%d err=%v", n, err)
			}
			if !bytes.Equal(w.b, blob) {
				t.Fatal("content mismatch: the corrupt chunk was committed")
			}
			m := e.client.Metrics()
			if m.ChecksumMismatches != 1 {
				t.Fatalf("ChecksumMismatches = %d, want 1 (the corrupt chunk, caught inline)", m.ChecksumMismatches)
			}
			if m.TransfersVerified != 1 {
				t.Fatalf("TransfersVerified = %d, want 1", m.TransfersVerified)
			}
		})
	}
}

// adlerOnly makes a gateway a legacy peer that speaks adler32 and nothing
// else, the way DPM and dCache do: it ignores Want-Digest, reports
// X-Checksum in adler32, and echoes an adler32 Digest only on the 201 that
// commits an upload — none on a 202 receipt, none on GET or HEAD.
type adlerOnly struct {
	srv *httpserv.Server
	st  *storage.MemStore
}

func (a adlerOnly) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Header.Del("Want-Digest")
	a.srv.ServeHTTP(&adlerWriter{ResponseWriter: w, a: a, r: r}, r)
}

type adlerWriter struct {
	http.ResponseWriter
	a     adlerOnly
	r     *http.Request
	wrote bool
}

func (w *adlerWriter) WriteHeader(code int) {
	w.wrote = true
	h := w.Header()
	h.Del("Digest")
	if data, _, err := w.a.st.Get(w.r.URL.Path); err == nil {
		sum := adler32.Checksum(data)
		if h.Get("X-Checksum") != "" {
			h.Set("X-Checksum", fmt.Sprintf("adler32:%08x", sum))
		}
		if code == http.StatusCreated && w.r.Method == http.MethodPut {
			h.Set("Digest", fmt.Sprintf("adler32=%08x", sum))
		}
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *adlerWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(p)
}

// startAdlerOnly launches an adlerOnly gateway on addr over the fabric.
func (e *testEnv) startAdlerOnly(t *testing.T, addr string) {
	t.Helper()
	e.startServerHandler(t, addr, httpserv.Options{}, func(srv *httpserv.Server, st *storage.MemStore) http.Handler {
		return adlerOnly{srv: srv, st: st}
	})
}

// TestAdlerOnlyPeerVerifies: against a peer that speaks adler32 alone, the
// client's offer of crc32c goes unanswered and every transfer falls back to
// adler32 — a verified download, chunked upload, streamed upload, Put, and
// the single whole-body PUT an UploadMultiStream of one chunk or one worker
// sends, each — and a byte flipped on the way still fails each with
// ErrChecksumMismatch.
func TestAdlerOnlyPeerVerifies(t *testing.T) {
	const chunk = 32 << 10 // large enough that a body piece is a write of its own
	blob := uploadBlob(4*chunk, 56)
	small := blob[:3*chunk/4]
	ctx := context.Background()
	ops := []struct {
		name string
		// serial sets MaxPerHost 1.
		serial bool
		run    func(c *Client) error
	}{
		{"DownloadMultiStreamTo", false, func(c *Client) error {
			w := &bufWriterAt{b: make([]byte, len(blob))}
			if _, err := c.DownloadMultiStreamTo(ctx, dpm1, "/f", w); err != nil {
				return err
			}
			if !bytes.Equal(w.b, blob) {
				return errors.New("downloaded bytes differ")
			}
			return nil
		}},
		{"UploadMultiStream", false, func(c *Client) error {
			return c.UploadMultiStream(ctx, dpm1, "/up", bytes.NewReader(blob), int64(len(blob)))
		}},
		{"UploadMultiStreamOneChunk", false, func(c *Client) error {
			return c.UploadMultiStream(ctx, dpm1, "/up", bytes.NewReader(small), int64(len(small)))
		}},
		{"UploadMultiStreamOneWorker", true, func(c *Client) error {
			return c.UploadMultiStream(ctx, dpm1, "/up", bytes.NewReader(blob), int64(len(blob)))
		}},
		{"PutReader", false, func(c *Client) error {
			return c.PutReader(ctx, dpm1, "/up", bytes.NewReader(blob), int64(len(blob)))
		}},
		{"Put", false, func(c *Client) error {
			return c.Put(ctx, dpm1, "/up", blob)
		}},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			opts := Options{Strategy: StrategyNone, ChunkSize: chunk, VerifyTransfers: true}
			if op.serial {
				opts.MaxPerHost = 1
			}
			e := newEnv(t, opts)
			e.startAdlerOnly(t, dpm1)
			e.stores[dpm1].Put("/f", blob)
			if err := op.run(e.client); err != nil {
				t.Fatal(err)
			}
			if m := e.client.Metrics(); m.TransfersVerified != 1 || m.ChecksumMismatches != 0 {
				t.Fatalf("TransfersVerified = %d, ChecksumMismatches = %d, want 1 and 0", m.TransfersVerified, m.ChecksumMismatches)
			}

			// Damaged: the download reads a flipped byte, an upload sends one.
			e.faults[dpm1].Set("/f", faults.Fault{CorruptXOR: 0x01, CorruptAt: 9000})
			opts.Dialer = flipFirstBody(e.net)
			if op.name == "DownloadMultiStreamTo" {
				opts.Dialer = e.net
			}
			c, err := NewClient(opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			var ce *ChecksumError
			if err := op.run(c); !errors.Is(err, ErrChecksumMismatch) || !errors.As(err, &ce) || ce.Algo != "adler32" {
				t.Fatalf("damaged transfer: err = %v, want an adler32 ErrChecksumMismatch", err)
			}
		})
	}
}

// TestChunkReceiptNamesTheDamagedChunk: every 202 a chunked upload gets
// carries the gateway's Digest of that chunk as received, so a byte flipped
// on the wire fails the upload naming the chunk it sits in — whichever of
// the 202 receipt or, when that chunk is the one that commits, the 201
// catches it.
func TestChunkReceiptNamesTheDamagedChunk(t *testing.T) {
	const size, chunk = 32 << 20, 8 << 20
	blob := uploadBlob(size, 57)
	// Chunk 3 follows the 64 KiB probe and chunks 1 and 2.
	const start = uploadProbeLen + 2*chunk
	e := newEnv(t, Options{})
	e.startServer(t, dpm1, httpserv.Options{})

	var mu sync.Mutex
	target, flipped := 0, false
	marker := []byte(fmt.Sprintf("Content-Range: bytes %d-", start))
	flip := &tamperDialer{inner: e.net, onWrite: func(conn int, _ int64, p []byte) ([]byte, bool) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case bytes.Contains(p, marker):
			target = conn
		case conn == target && !flipped && len(p) >= 16<<10:
			flipped = true
			p = append([]byte(nil), p...)
			p[0] ^= 0x5a
		}
		return p, false
	}}
	c, err := NewClient(Options{Dialer: flip, Strategy: StrategyNone, ChunkSize: chunk, VerifyTransfers: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	err = c.UploadMultiStream(context.Background(), dpm1, "/big", bytes.NewReader(blob), size)
	var ce *ChecksumError
	if !errors.Is(err, ErrChecksumMismatch) || !errors.As(err, &ce) {
		t.Fatalf("err = %v, want a ChecksumError", err)
	}
	if !flipped {
		t.Fatal("the test flipped nothing")
	}
	if ce.Off != start || ce.Length != chunk || ce.Algo != "crc32c" {
		t.Fatalf("mismatch %s [%d,+%d), want crc32c chunk 3 [%d,+%d)", ce.Algo, ce.Off, ce.Length, start, chunk)
	}
}
