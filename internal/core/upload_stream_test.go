package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"godavix/internal/httpserv"
	"godavix/internal/pool"
	"godavix/internal/storage"
)

// Chunk bodies stream from the source through the wire layer and are hashed
// on the way: nothing stages a chunk, and the sum of a chunk is the sum of
// the send the server accepted.

// tamperDialer wraps a Dialer so tests can interfere with what the client
// writes: onWrite sees each Write of each connection (numbered from 1 in
// dial order, with the bytes that connection wrote before) and returns what
// to put on the wire instead, and whether to kill the connection after it.
type tamperDialer struct {
	inner   pool.Dialer
	onWrite func(conn int, before int64, p []byte) (wire []byte, kill bool)

	mu    sync.Mutex
	dials int
}

func (d *tamperDialer) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	c, err := d.inner.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.dials++
	id := d.dials
	d.mu.Unlock()
	return &tamperConn{Conn: c, d: d, id: id}, nil
}

type tamperConn struct {
	net.Conn
	d      *tamperDialer
	id     int
	before int64
}

func (c *tamperConn) Write(p []byte) (int, error) {
	out, kill := c.d.onWrite(c.id, c.before, p)
	n, err := c.Conn.Write(out)
	c.before += int64(n)
	if kill {
		c.Conn.Close()
		return n, errors.New("tamperConn: connection killed")
	}
	if err == nil {
		n = len(p)
	}
	return n, err
}

// flipFirstBody returns a Dialer that flips the first byte of the first
// large write on any of its connections: large writes are body pieces,
// never headers.
func flipFirstBody(inner pool.Dialer) *tamperDialer {
	var once sync.Once
	return &tamperDialer{inner: inner, onWrite: func(_ int, _ int64, p []byte) ([]byte, bool) {
		if len(p) >= 16<<10 {
			once.Do(func() {
				p = append([]byte(nil), p...)
				p[0] ^= 0x5a
			})
		}
		return p, false
	}}
}

// TestUploadMultiStreamVerifiesCommit: a verified chunked upload holds the
// server's Digest of each chunk it received (the 202 receipts) and of what
// it committed (the 201) against the sums of what the client sent. A byte
// flipped between the two — the gateway hashes the damaged chunk in good
// faith — fails the upload with ErrChecksumMismatch naming that chunk; a
// clean one is counted as verified.
func TestUploadMultiStreamVerifiesCommit(t *testing.T) {
	opts := Options{Strategy: StrategyNone, ChunkSize: 32 << 10, UploadParallelism: 2, VerifyTransfers: true}
	blob := uploadBlob(4*32<<10, 71)
	ctx := context.Background()

	t.Run("clean", func(t *testing.T) {
		e := newEnv(t, opts)
		e.startServer(t, dpm1, httpserv.Options{})
		if err := e.client.UploadMultiStream(ctx, dpm1, "/f", bytes.NewReader(blob), int64(len(blob))); err != nil {
			t.Fatal(err)
		}
		if m := e.client.Metrics(); m.TransfersVerified != 1 || m.ChecksumMismatches != 0 {
			t.Fatalf("TransfersVerified = %d, ChecksumMismatches = %d, want 1 and 0", m.TransfersVerified, m.ChecksumMismatches)
		}
	})

	t.Run("damaged on the wire", func(t *testing.T) {
		e := newEnv(t, opts)
		e.startServer(t, dpm1, httpserv.Options{})
		opts := opts
		opts.Dialer = flipFirstBody(e.net)
		c, err := NewClient(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)

		err = c.UploadMultiStream(ctx, dpm1, "/f", bytes.NewReader(blob), int64(len(blob)))
		var ce *ChecksumError
		if !errors.Is(err, ErrChecksumMismatch) || !errors.As(err, &ce) {
			t.Fatalf("err = %v, want a ChecksumError", err)
		}
		// The first large write is the probe's body, the first 32 KiB.
		if ce.Off != 0 || ce.Length != 32<<10 {
			t.Fatalf("mismatch spans [%d,+%d), want the probe chunk [0,+32768)", ce.Off, ce.Length)
		}
		if m := c.Metrics(); m.ChecksumMismatches != 1 || m.TransfersVerified != 0 {
			t.Fatalf("ChecksumMismatches = %d, TransfersVerified = %d, want 1 and 0", m.ChecksumMismatches, m.TransfersVerified)
		}
		// Caught at the chunk's receipt: nothing was committed.
		if _, _, gerr := e.stores[dpm1].Get("/f"); gerr == nil {
			t.Fatal("the upload committed after a chunk receipt disagreed")
		}
		// And the client must not vouch for it from its cache.
		if inf, serr := c.Stat(ctx, dpm1, "/f"); !errors.Is(serr, ErrNotFound) {
			t.Fatalf("Stat after mismatch = %+v err=%v, want ErrNotFound", inf, serr)
		}
	})
}

// TestUploadChunkHashRestartsWithBody: a chunk body that is sent more than
// once — to a head node that bounces it to a disk node, or again after a
// recycled connection died under it — is hashed from its first byte each
// time, so the whole-object checksum is that of the object, not of every
// byte that crossed the wire.
func TestUploadChunkHashRestartsWithBody(t *testing.T) {
	opts := Options{Strategy: StrategyNone, ChunkSize: 32 << 10, UploadParallelism: 2, VerifyTransfers: true}
	blob := uploadBlob(4*32<<10, 72)
	ctx := context.Background()

	check := func(t *testing.T, c *Client, st *storage.MemStore, host string) {
		t.Helper()
		got, inf, err := st.Get("/pool/f")
		if err != nil || !bytes.Equal(got, blob) {
			t.Fatalf("stored %d bytes err=%v", len(got), err)
		}
		if m := c.Metrics(); m.TransfersVerified != 1 || m.ChecksumMismatches != 0 {
			t.Fatalf("TransfersVerified = %d, ChecksumMismatches = %d, want 1 and 0", m.TransfersVerified, m.ChecksumMismatches)
		}
		primed, err := c.Stat(ctx, host, "/pool/f")
		if err != nil || primed.Checksum != inf.Checksum {
			t.Fatalf("primed checksum %q err=%v, store has %q", primed.Checksum, err, inf.Checksum)
		}
	}

	t.Run("redirected", func(t *testing.T) {
		e := newEnv(t, opts)
		e.startServer(t, "disk1:80", httpserv.Options{})
		startHeadNode(t, e, "head:80", "disk1:80")
		if err := e.client.UploadMultiStream(ctx, "head:80", "/pool/f", bytes.NewReader(blob), int64(len(blob))); err != nil {
			t.Fatal(err)
		}
		// The probe's body went out twice: once to the head node, once to
		// the disk node it named.
		if m := e.client.Metrics(); m.Redirects != 1 {
			t.Fatalf("Redirects = %d, want 1 (the probe)", m.Redirects)
		}
		check(t, e.client, e.stores["disk1:80"], "head:80")
	})

	t.Run("replayed on a stale connection", func(t *testing.T) {
		e := newEnv(t, opts)
		e.startServer(t, dpm1, httpserv.Options{})
		// The first connection carries the probe, is recycled, and dies
		// half way through the body of the chunk it carries next.
		limit := int64(opts.ChunkSize + opts.ChunkSize/2)
		stale := &tamperDialer{inner: e.net, onWrite: func(conn int, before int64, p []byte) ([]byte, bool) {
			if conn == 1 && before+int64(len(p)) > limit {
				return p[:max(limit-before, 0)], true
			}
			return p, false
		}}
		opts := opts
		opts.Dialer = stale
		c, err := NewClient(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if err := c.UploadMultiStream(ctx, dpm1, "/pool/f", bytes.NewReader(blob), int64(len(blob))); err != nil {
			t.Fatal(err)
		}
		if m := c.Metrics(); m.Retries != 1 {
			t.Fatalf("Retries = %d, want 1 (the replayed chunk)", m.Retries)
		}
		check(t, c, e.stores[dpm1], dpm1)
	})
}

// loopbackGateway serves st from an in-process gateway on loopback TCP and
// returns a client, configured by opts, that dials real sockets to it.
func loopbackGateway(t *testing.T, st storage.Store, opts Options) (c *Client, host string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go httpserv.New(st, httpserv.Options{}).Serve(l)

	var nd net.Dialer
	opts.Dialer = pool.DialerFunc(func(ctx context.Context, addr string) (net.Conn, error) {
		return nd.DialContext(ctx, "tcp", addr)
	})
	c, err = NewClient(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, l.Addr().String()
}

// TestUploadMultiStreamAllocBudget: a bulk transfer stages no chunk.
// Against an in-process gateway over loopback TCP, a 32 MiB object in 8 MiB
// chunks costs the whole process, client and gateway together:
//   - UploadMultiStream: the gateway's one assembly buffer — the object size
//     — plus small change. Staging each chunk in a buffer of its own, as this
//     path once did, doubles that (8 MiB is past bufpool's top class).
//   - PutReader: the gateway's one body buffer plus small change; the
//     client streams the body through a pooled buffer, never the object.
//   - DownloadMultiStreamTo into an *os.File: no object-sized buffer on
//     either side, only per-chunk bookkeeping and pooled buffers. Measured
//     23–31 KB per download, up to 45 KB under the race detector; the
//     budget is that plus 25 %, a sixth of one percent of the object.
func TestUploadMultiStreamAllocBudget(t *testing.T) {
	const size = 32 << 20
	st := storage.NewMemStore()
	c, host := loopbackGateway(t, st,
		Options{Strategy: StrategyNone, ChunkSize: 8 << 20, UploadParallelism: 2, MaxStreams: 2, VerifyTransfers: true})
	blob := uploadBlob(size, 73)
	st.Put("/object", blob)
	f, err := os.Create(filepath.Join(t.TempDir(), "object"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()

	for _, row := range []struct {
		name   string
		budget uint64
		op     func(path string) error
	}{
		{"UploadMultiStream", size + size/10, func(path string) error {
			return c.UploadMultiStream(ctx, host, path, bytes.NewReader(blob), size)
		}},
		{"PutReader", size + size/10, func(path string) error {
			return c.PutReader(ctx, host, path, bytes.NewReader(blob), size)
		}},
		{"DownloadMultiStreamTo", 56 << 10, func(string) error {
			n, err := c.DownloadMultiStreamTo(ctx, host, "/object", f)
			if err == nil && n != size {
				err = fmt.Errorf("downloaded %d bytes, want %d", n, size)
			}
			return err
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			if err := row.op("/warm"); err != nil { // dials, pooled buffers, lazily built tables
				t.Fatal(err)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if err := row.op("/measured"); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			allocated := m1.TotalAlloc - m0.TotalAlloc
			t.Logf("allocated %d B, %.4f × object size", allocated, float64(allocated)/size)
			if allocated > row.budget {
				t.Fatalf("%d-byte transfer allocated %d B process-wide, budget %d", size, allocated, row.budget)
			}
		})
	}
}

// TestGetAllocBudget: a small whole-object Get over loopback TCP costs the
// process — client and gateway together — the []byte it returns plus the two
// sides' per-request bookkeeping: header maps, request and response structs.
// No buffer is part of that: the gateway writes the stored bytes themselves
// and the client serializes requests through a reused writer. Measured: body
// + 4.2 KB per Get (6.3 KB under the race detector, where sync.Pool drops a
// quarter of its puts); with a copy buffer per response on the gateway and a
// 4 KiB writer per request on the client it was body + 25.6 KB.
func TestGetAllocBudget(t *testing.T) {
	const size = 16 << 10
	st := storage.NewMemStore()
	st.Put("/small", uploadBlob(size, 7))
	c, host := loopbackGateway(t, st, Options{Strategy: StrategyNone, VerifyTransfers: true})
	get := func() {
		t.Helper()
		if b, err := c.Get(context.Background(), host, "/small"); err != nil || len(b) != size {
			t.Fatalf("Get: %d bytes, err %v", len(b), err)
		}
	}
	get() // dial, pooled buffers, lazily built tables

	// TotalAlloc is process-wide: enough runs that a background allocation
	// amortises, and a second measurement before one is believed.
	const runs = 200
	measure := func() int64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			get()
		}
		runtime.ReadMemStats(&m1)
		return int64(m1.TotalAlloc-m0.TotalAlloc)/runs - size
	}
	overhead := measure()
	if overhead > 8<<10 {
		overhead = min(overhead, measure())
	}
	t.Logf("body + %d B allocated per Get", overhead)
	if overhead > 8<<10 {
		t.Fatalf("a %d-byte Get allocated body + %d B process-wide, budget body + 8 KiB", size, overhead)
	}
}
