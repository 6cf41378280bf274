package core

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"godavix/internal/faults"
	"godavix/internal/httpserv"
	"godavix/internal/netsim"
	"godavix/internal/obs"
	"godavix/internal/pool"
	"godavix/internal/storage"
)

// uploadBlob builds a deterministic payload of n bytes.
func uploadBlob(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestPutReaderStreamsKnownSize(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone})
	e.startServer(t, dpm1, httpserv.Options{})
	ctx := context.Background()

	blob := uploadBlob(96<<10, 31)
	// bytes.Buffer is deliberately non-seekable: the body must stream.
	if err := e.client.PutReader(ctx, dpm1, "/up", bytes.NewBuffer(blob), int64(len(blob))); err != nil {
		t.Fatal(err)
	}
	got, _, err := e.stores[dpm1].Get("/up")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("stored %d bytes err=%v", len(got), err)
	}
	if puts := e.srvs[dpm1].RequestsByMethod("PUT"); puts != 1 {
		t.Fatalf("server PUTs = %d, want 1", puts)
	}
}

func TestPutReaderUnknownSizeUsesChunked(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone})
	e.startServer(t, dpm1, httpserv.Options{})

	blob := uploadBlob(40<<10, 32)
	if err := e.client.PutReader(context.Background(), dpm1, "/chunked", bytes.NewBuffer(blob), -1); err != nil {
		t.Fatal(err)
	}
	got, _, err := e.stores[dpm1].Get("/chunked")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("stored %d bytes err=%v", len(got), err)
	}
}

// countingReader counts the bytes drained from the wrapped reader, to
// prove a redirect hop never consumed the body.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func TestPutReaderFollowsRedirectBeforeBody(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone})
	e.startServer(t, "disk1:80", httpserv.Options{})
	startHeadNode(t, e, "head:80", "disk1:80")

	blob := uploadBlob(32<<10, 33)
	cr := &countingReader{r: bytes.NewBuffer(blob)}
	if err := e.client.PutReader(context.Background(), "head:80", "/pool/up", cr, int64(len(blob))); err != nil {
		t.Fatal(err)
	}
	got, _, err := e.stores["disk1:80"].Get("/pool/up")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("disk store: %d bytes err=%v", len(got), err)
	}
	// The redirect verdict arrived before the body was streamed: the
	// reader was drained exactly once, for the disk-node hop.
	if cr.n != int64(len(blob)) {
		t.Fatalf("reader consumed %d bytes, want %d (redirect must not re-read)", cr.n, len(blob))
	}
	if puts := e.srvs["disk1:80"].RequestsByMethod("PUT"); puts != 1 {
		t.Fatalf("disk node PUTs = %d, want 1", puts)
	}
}

func TestUploadMultiStreamReassembly(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone, ChunkSize: 4 << 10, UploadParallelism: 4})
	e.startServer(t, dpm1, httpserv.Options{})

	blob := uploadBlob(64<<10, 34) // 16 chunks
	if err := e.client.UploadMultiStream(context.Background(), dpm1, "/ms", bytes.NewReader(blob), int64(len(blob))); err != nil {
		t.Fatal(err)
	}
	got, inf, err := e.stores[dpm1].Get("/ms")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("stored %d bytes err=%v", len(got), err)
	}
	if inf.Checksum != storage.Checksum(blob) {
		t.Fatalf("checksum %q after reassembly", inf.Checksum)
	}
	if puts := e.srvs[dpm1].RequestsByMethod("PUT"); puts != 16 {
		t.Fatalf("server PUTs = %d, want 16 (one per chunk)", puts)
	}
}

func TestUploadMultiStreamOddSizes(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone, ChunkSize: 1000, UploadParallelism: 3})
	e.startServer(t, dpm1, httpserv.Options{})
	ctx := context.Background()

	for _, n := range []int{1, 999, 1000, 1001, 2500, 10007} {
		blob := uploadBlob(n, int64(n))
		if err := e.client.UploadMultiStream(ctx, dpm1, "/odd", bytes.NewReader(blob), int64(n)); err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		got, _, err := e.stores[dpm1].Get("/odd")
		if err != nil || !bytes.Equal(got, blob) {
			t.Fatalf("size %d: stored %d bytes err=%v", n, len(got), err)
		}
	}
}

func TestUploadMultiStreamReusesRedirectTarget(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone, ChunkSize: 4 << 10, UploadParallelism: 4})
	e.startServer(t, "disk1:80", httpserv.Options{})
	startHeadNode(t, e, "head:80", "disk1:80")

	blob := uploadBlob(64<<10, 35) // 16 chunks
	if err := e.client.UploadMultiStream(context.Background(), "head:80", "/pool/ms", bytes.NewReader(blob), int64(len(blob))); err != nil {
		t.Fatal(err)
	}
	got, _, err := e.stores["disk1:80"].Get("/pool/ms")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("disk store: %d bytes err=%v", len(got), err)
	}
	// Only the probe chunk paid the head-node redirect; the 15 siblings
	// went straight to the resolved disk node.
	if headPuts := e.srvs["head:80"].RequestsByMethod("PUT"); headPuts != 1 {
		t.Fatalf("head node PUTs = %d, want 1 (probe only)", headPuts)
	}
	if diskPuts := e.srvs["disk1:80"].RequestsByMethod("PUT"); diskPuts != 16 {
		t.Fatalf("disk node PUTs = %d, want 16", diskPuts)
	}
}

// recordDialer captures every byte written to any connection it dials.
type recordDialer struct {
	inner pool.Dialer
	mu    sync.Mutex
	buf   bytes.Buffer
}

func (d *recordDialer) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	c, err := d.inner.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &recordConn{Conn: c, d: d}, nil
}

type recordConn struct {
	net.Conn
	d *recordDialer
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.d.mu.Lock()
	c.d.buf.Write(p)
	c.d.mu.Unlock()
	return c.Conn.Write(p)
}

// captureWire runs op against a fresh single-server testbed with a
// recording dialer and returns every request byte the client wrote.
func captureWire(t *testing.T, op func(ctx context.Context, c *Client) error) []byte {
	t.Helper()
	n := netsim.New(netsim.Ideal())
	st := storage.NewMemStore()
	srv := httpserv.New(st, httpserv.Options{})
	l, err := n.Listen(dpm1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go srv.Serve(l)

	rd := &recordDialer{inner: n}
	c, err := NewClient(Options{Dialer: rd, Strategy: StrategyNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := op(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	rd.mu.Lock()
	defer rd.mu.Unlock()
	return append([]byte(nil), rd.buf.Bytes()...)
}

// TestSerialUploadWireIdenticalToPut: with UploadParallelism=1 the
// multi-stream entry point must put the exact seed PUT on the wire — same
// request line, same headers, same body framing — so fidelity benchmarks
// measure the paper's single-stream upload, not an approximation of it.
func TestSerialUploadWireIdenticalToPut(t *testing.T) {
	blob := uploadBlob(24<<10, 36)
	seed := captureWire(t, func(ctx context.Context, c *Client) error {
		return c.Put(ctx, dpm1, "/wire", blob)
	})
	serial := captureWire(t, func(ctx context.Context, c *Client) error {
		c.opts.UploadParallelism = 1
		return c.UploadMultiStream(ctx, dpm1, "/wire", bytes.NewReader(blob), int64(len(blob)))
	})
	if !bytes.Equal(seed, serial) {
		t.Fatalf("serial upload diverged from seed PUT on the wire:\nseed   %d bytes\nserial %d bytes", len(seed), len(serial))
	}
}

// TestUploadMidChunkFailureCancelsSiblings: one sibling chunk hits a
// semantic failure after the probe; the other in-flight streams must be
// cancelled instead of draining the remaining work queue, and the object
// must never be committed. Every PUT after the failing one is held
// server-side far longer than the test may take, so no sibling can complete
// before the cancellation: the server sees the probe and at most one PUT
// per stream.
func TestUploadMidChunkFailureCancelsSiblings(t *testing.T) {
	const streams = 2
	const hold = 5 * time.Second
	e := newEnv(t, Options{Strategy: StrategyNone, ChunkSize: 256, UploadParallelism: streams})
	e.startServer(t, dpm1, httpserv.Options{})

	blob := uploadBlob(64<<8, 37) // 64 chunks
	// Probe passes (After: 1), the next chunk PUT gets a non-retryable 403;
	// the path fault shadows "*" until then.
	e.faults[dpm1].Set("/cancel", faults.Fault{Status: 403, After: 1, Remaining: 1})
	e.faults[dpm1].Set("*", faults.Fault{Delay: hold})

	start := time.Now()
	err := e.client.UploadMultiStream(context.Background(), dpm1, "/cancel", bytes.NewReader(blob), int64(len(blob)))
	if err == nil {
		t.Fatal("expected error from failing chunk")
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 403 {
		t.Fatalf("err = %v, want the 403 StatusError", err)
	}
	if d := time.Since(start); d > hold/2 {
		t.Fatalf("returned after %v: a cancelled sibling sat out the server's %v hold", d, hold)
	}
	// A PUT already on the wire when the error surfaced may still reach the
	// server; once those have landed, no straggler may keep uploading.
	time.Sleep(50 * time.Millisecond)
	puts := e.faults[dpm1].Requests("PUT")
	if puts > 1+streams {
		t.Fatalf("server saw %d PUTs, want at most probe + %d; siblings not cancelled", puts, streams)
	}
	time.Sleep(50 * time.Millisecond)
	if now := e.faults[dpm1].Requests("PUT"); now != puts {
		t.Fatalf("PUTs grew %d -> %d after the upload returned", puts, now)
	}
	if _, err := e.stores[dpm1].Stat("/cancel"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("partial upload was committed: %v", err)
	}
}

// TestUploadCancelledNeverReportsSuccess: cancelling the caller's context
// mid-upload must surface context.Canceled, and the object must not be
// committed as complete.
func TestUploadCancelledNeverReportsSuccess(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone, ChunkSize: 256, UploadParallelism: 2})
	e.startServer(t, dpm1, httpserv.Options{})
	e.faults[dpm1].Set("*", faults.Fault{Delay: 5 * time.Millisecond})

	blob := uploadBlob(64<<8, 38) // 64 chunks x 5ms: plenty of time to cancel
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	err := e.client.UploadMultiStream(ctx, dpm1, "/cancelled", bytes.NewReader(blob), int64(len(blob)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, serr := e.stores[dpm1].Stat("/cancelled"); !errors.Is(serr, storage.ErrNotFound) {
		t.Fatal("cancelled upload committed the object")
	}
}

// TestUploadFallsBackWhenRangedPutUnsupported: a server refusing
// Content-Range PUTs (RFC 9110 400) must degrade the multi-stream upload
// to the single-stream path transparently.
func TestUploadFallsBackWhenRangedPutUnsupported(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone, ChunkSize: 4 << 10, UploadParallelism: 4})
	e.startServer(t, dpm1, httpserv.Options{DisableRangedPut: true})

	blob := uploadBlob(64<<10, 39)
	if err := e.client.UploadMultiStream(context.Background(), dpm1, "/fb", bytes.NewReader(blob), int64(len(blob))); err != nil {
		t.Fatal(err)
	}
	got, _, err := e.stores[dpm1].Get("/fb")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("stored %d bytes err=%v", len(got), err)
	}
	// Exactly the rejected probe plus one whole-body PUT.
	if puts := e.srvs[dpm1].RequestsByMethod("PUT"); puts != 2 {
		t.Fatalf("server PUTs = %d, want 2 (probe + fallback)", puts)
	}
}

// TestUploadSerialFallbackIsCounted: a multi-stream upload that a gateway
// rejecting ranged PUTs degrades to one whole-body PUT is visible — once in
// the engine counter, the Snapshot and its exposition, and once as a trace
// event carrying the refusal — while a healthy chunked upload leaves all
// of them alone.
func TestUploadSerialFallbackIsCounted(t *testing.T) {
	var events []error
	var mu sync.Mutex
	e := newEnv(t, Options{Strategy: StrategyNone, ChunkSize: 4 << 10, UploadParallelism: 4,
		Trace: &obs.ClientTrace{UploadFellBackSerial: func(path string, err error) {
			mu.Lock()
			defer mu.Unlock()
			if path != "/fb" {
				t.Errorf("fallback reported for %q", path)
			}
			events = append(events, err)
		}}})
	e.startServer(t, dpm1, httpserv.Options{DisableRangedPut: true})
	e.startServer(t, "dpm2:80", httpserv.Options{})
	blob := uploadBlob(64<<10, 41)
	ctx := context.Background()

	if err := e.client.UploadMultiStream(ctx, "dpm2:80", "/ok", bytes.NewReader(blob), int64(len(blob))); err != nil {
		t.Fatal(err)
	}
	if n := e.client.Metrics().UploadsFellBackSerial; n != 0 || len(events) != 0 {
		t.Fatalf("chunked upload counted as a fallback: counter %d, %d trace events", n, len(events))
	}
	if err := e.client.UploadMultiStream(ctx, dpm1, "/fb", bytes.NewReader(blob), int64(len(blob))); err != nil {
		t.Fatal(err)
	}
	s := e.client.Snapshot()
	if s.Engine.UploadsFellBackSerial != 1 {
		t.Fatalf("UploadsFellBackSerial = %d, want 1", s.Engine.UploadsFellBackSerial)
	}
	var se *StatusError
	if len(events) != 1 || !errors.As(events[0], &se) || se.Code != 400 {
		t.Fatalf("trace events %v, want one carrying the gateway's 400", events)
	}
	for _, c := range s.Expo().Counters {
		if c.Name == "uploads_fell_back_serial_total" {
			if c.Value != 1 {
				t.Fatalf("exposed counter = %d, want 1", c.Value)
			}
			return
		}
	}
	t.Fatal("uploads_fell_back_serial_total missing from the exposition")
}

// bufWriterAt is an in-memory io.WriterAt tolerating concurrent disjoint
// writes, standing in for an os.File destination.
type bufWriterAt struct {
	mu sync.Mutex
	b  []byte
}

func (w *bufWriterAt) WriteAt(p []byte, off int64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if int(off)+len(p) > len(w.b) {
		return 0, errors.New("write past end")
	}
	copy(w.b[off:], p)
	return len(p), nil
}

func TestDownloadMultiStreamToWritesThrough(t *testing.T) {
	e := newEnv(t, Options{MetalinkHost: "fed:80", ChunkSize: 4 << 10, MaxStreams: 4})
	e.startServer(t, dpm1, httpserv.Options{})
	e.startServer(t, "dpm2:80", httpserv.Options{})
	blob := uploadBlob(64<<10, 40)
	e.stores[dpm1].Put("/f", blob)
	e.stores["dpm2:80"].Put("/f", blob)
	e.startServer(t, "fed:80", httpserv.Options{Metalinks: mlFor("http://dpm1:80/f", "http://dpm2:80/f")})

	w := &bufWriterAt{b: make([]byte, len(blob))}
	n, err := e.client.DownloadMultiStreamTo(context.Background(), dpm1, "/f", w)
	if err != nil || n != int64(len(blob)) {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if !bytes.Equal(w.b, blob) {
		t.Fatal("content mismatch")
	}
	// Both replicas served chunks: the load was spread.
	if e.srvs[dpm1].RequestsByMethod("GET") == 0 || e.srvs["dpm2:80"].RequestsByMethod("GET") == 0 {
		t.Fatal("chunks were not spread over the replicas")
	}
}

func TestDownloadMultiStreamToWithoutMetalink(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone, ChunkSize: 4 << 10, MaxStreams: 4})
	e.startServer(t, dpm1, httpserv.Options{})
	blob := uploadBlob(48<<10, 41)
	e.stores[dpm1].Put("/solo", blob)

	w := &bufWriterAt{b: make([]byte, len(blob))}
	n, err := e.client.DownloadMultiStreamTo(context.Background(), dpm1, "/solo", w)
	if err != nil || n != int64(len(blob)) {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if !bytes.Equal(w.b, blob) {
		t.Fatal("content mismatch")
	}
}

func TestCopyStreamPullParallel(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone, ChunkSize: 4 << 10, UploadParallelism: 4})
	e.startServer(t, dpm1, httpserv.Options{})
	e.startServer(t, "dpm2:80", httpserv.Options{})
	blob := uploadBlob(32<<10, 42) // 8 chunks
	e.stores[dpm1].Put("/src", blob)

	if err := e.client.CopyStream(context.Background(), dpm1, "/src", "http://dpm2:80/dst"); err != nil {
		t.Fatal(err)
	}
	got, _, err := e.stores["dpm2:80"].Get("/dst")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("dest stored %d bytes err=%v", len(got), err)
	}
	// Client-mediated pull: the source served ranged GETs, the destination
	// assembled ranged PUTs, and no server-side COPY was involved.
	if gets := e.srvs[dpm1].RequestsByMethod("GET"); gets != 8 {
		t.Fatalf("source GETs = %d, want 8", gets)
	}
	if puts := e.srvs["dpm2:80"].RequestsByMethod("PUT"); puts != 8 {
		t.Fatalf("dest PUTs = %d, want 8", puts)
	}
	if e.srvs[dpm1].RequestsByMethod("COPY") != 0 {
		t.Fatal("pull copy must not use server-side COPY")
	}
}

func TestCopyStreamPipeFallback(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone, ChunkSize: 4 << 10, UploadParallelism: 4})
	e.startServer(t, dpm1, httpserv.Options{})
	e.startServer(t, "dpm2:80", httpserv.Options{DisableRangedPut: true})
	blob := uploadBlob(32<<10, 43)
	e.stores[dpm1].Put("/src", blob)

	if err := e.client.CopyStream(context.Background(), dpm1, "/src", "http://dpm2:80/dst"); err != nil {
		t.Fatal(err)
	}
	got, _, err := e.stores["dpm2:80"].Get("/dst")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("dest stored %d bytes err=%v", len(got), err)
	}
	// The rejected probe plus one streaming whole-body PUT.
	if puts := e.srvs["dpm2:80"].RequestsByMethod("PUT"); puts != 2 {
		t.Fatalf("dest PUTs = %d, want 2 (probe + pipe fallback)", puts)
	}
}

func TestCopyStreamSerialMode(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone, ChunkSize: 4 << 10, UploadParallelism: 1})
	e.startServer(t, dpm1, httpserv.Options{})
	e.startServer(t, "dpm2:80", httpserv.Options{})
	blob := uploadBlob(32<<10, 44)
	e.stores[dpm1].Put("/src", blob)

	if err := e.client.CopyStream(context.Background(), dpm1, "/src", "http://dpm2:80/dst"); err != nil {
		t.Fatal(err)
	}
	got, _, err := e.stores["dpm2:80"].Get("/dst")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("dest stored %d bytes err=%v", len(got), err)
	}
	if puts := e.srvs["dpm2:80"].RequestsByMethod("PUT"); puts != 1 {
		t.Fatalf("dest PUTs = %d, want 1 (single streamed PUT)", puts)
	}
}

// TestCopyStreamSourceFailover: the pull copy's read side walks the
// Metalink replica ring when the primary is unavailable.
func TestCopyStreamSourceFailover(t *testing.T) {
	e := newEnv(t, Options{MetalinkHost: "fed:80", ChunkSize: 4 << 10, UploadParallelism: 4})
	e.startServer(t, dpm1, httpserv.Options{})
	e.startServer(t, "dpm2:80", httpserv.Options{})
	e.startServer(t, "dpm3:80", httpserv.Options{})
	blob := uploadBlob(32<<10, 45)
	e.stores[dpm1].Put("/f", blob)
	e.stores["dpm2:80"].Put("/f", blob)
	e.startServer(t, "fed:80", httpserv.Options{Metalinks: mlFor("http://dpm2:80/f")})

	// The primary refuses every request for /f with a retryable 503.
	e.faults[dpm1].Set("/f", faults.Fault{Status: 503})

	if err := e.client.CopyStream(context.Background(), dpm1, "/f", "http://dpm3:80/copy"); err != nil {
		t.Fatalf("pull copy with dead primary: %v", err)
	}
	got, _, err := e.stores["dpm3:80"].Get("/copy")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("dest stored %d bytes err=%v", len(got), err)
	}
}

// TestCopyInvalidatesDestinationCaches: the push-mode Copy rewrites the
// destination, so this client's cached blocks and stat entries (negative
// ones included) for the destination must be dropped.
func TestCopyInvalidatesDestinationCaches(t *testing.T) {
	e := newEnv(t, cachedOptions())
	e.startServer(t, "dpm2:80", httpserv.Options{})
	// The source server pushes through a client on the same fabric.
	pusher, err := NewClient(Options{Dialer: e.net, Strategy: StrategyNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pusher.Close)
	e.startServer(t, dpm1, httpserv.Options{Copier: pusher})

	ctx := context.Background()
	oldData := []byte("old")
	newData := []byte("fresh content, longer than before")
	e.stores[dpm1].Put("/s", newData)
	e.stores["dpm2:80"].Put("/d", oldData)

	// Warm the caches with the destination's pre-copy state, positive and
	// negative.
	if got, err := e.client.GetRange(ctx, "dpm2:80", "/d", 0, 16); err != nil || !bytes.Equal(got, oldData) {
		t.Fatalf("warm read = %q err=%v", got, err)
	}
	if inf, err := e.client.Stat(ctx, "dpm2:80", "/d"); err != nil || inf.Size != int64(len(oldData)) {
		t.Fatalf("warm stat = %+v err=%v", inf, err)
	}
	if _, err := e.client.Stat(ctx, "dpm2:80", "/d2"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("warm negative stat = %v", err)
	}

	if err := e.client.Copy(ctx, dpm1, "/s", "http://dpm2:80/d"); err != nil {
		t.Fatal(err)
	}
	if err := e.client.Copy(ctx, dpm1, "/s", "http://dpm2:80/d2"); err != nil {
		t.Fatal(err)
	}

	// Without invalidation these would be stale ("old", size 3) or a stuck
	// negative entry.
	inf, err := e.client.Stat(ctx, "dpm2:80", "/d")
	if err != nil || inf.Size != int64(len(newData)) {
		t.Fatalf("stat after copy = %+v err=%v (stale stat cache)", inf, err)
	}
	got, err := e.client.GetRange(ctx, "dpm2:80", "/d", 0, int64(len(newData)))
	if err != nil || !bytes.Equal(got, newData) {
		t.Fatalf("read after copy = %q err=%v (stale block cache)", got, err)
	}
	if inf, err = e.client.Stat(ctx, "dpm2:80", "/d2"); err != nil || inf.Size != int64(len(newData)) {
		t.Fatalf("stat of copied-over 404 = %+v err=%v (negative entry stuck)", inf, err)
	}
}

// TestPutPrimesStatCacheAndBlocks: after an upload the writer knows the
// object's new state, so a put-then-stat and a put-then-read must be pure
// memory hits.
func TestPutPrimesStatCacheAndBlocks(t *testing.T) {
	e := newEnv(t, cachedOptions())
	e.startServer(t, dpm1, httpserv.Options{})
	ctx := context.Background()

	blob := uploadBlob(4<<10, 46)
	if err := e.client.Put(ctx, dpm1, "/primed", blob); err != nil {
		t.Fatal(err)
	}
	inf, err := e.client.Stat(ctx, dpm1, "/primed")
	if err != nil || inf.Size != int64(len(blob)) {
		t.Fatalf("stat after put = %+v err=%v", inf, err)
	}
	// The primed entry carries the checksum of the uploaded bytes, exactly
	// what the server's HEAD would have reported.
	if inf.Checksum != storage.Checksum(blob) {
		t.Fatalf("primed checksum = %q, want %q", inf.Checksum, storage.Checksum(blob))
	}
	if heads := e.srvs[dpm1].RequestsByMethod("HEAD"); heads != 0 {
		t.Fatalf("server HEADs = %d, want 0 (stat cache primed by Put)", heads)
	}
	got, err := e.client.GetRange(ctx, dpm1, "/primed", 0, int64(len(blob)))
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("read after put = %d bytes err=%v", len(got), err)
	}
	if gets := e.srvs[dpm1].RequestsByMethod("GET"); gets != 0 {
		t.Fatalf("server GETs = %d, want 0 (blocks written through by Put)", gets)
	}
}

// TestUploadMultiStreamPrimesStatCache: a commit-signalling server (some
// chunk answered 201 Created) needs no verification round trip, and the
// writer's knowledge of the new size primes the stat cache — follow-up
// Stats cost zero requests.
func TestUploadMultiStreamPrimesStatCache(t *testing.T) {
	opts := cachedOptions()
	opts.ChunkSize = 4 << 10
	opts.UploadParallelism = 4
	e := newEnv(t, opts)
	e.startServer(t, dpm1, httpserv.Options{})
	ctx := context.Background()

	blob := uploadBlob(32<<10, 47)
	if err := e.client.UploadMultiStream(ctx, dpm1, "/msprime", bytes.NewReader(blob), int64(len(blob))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		inf, err := e.client.Stat(ctx, dpm1, "/msprime")
		if err != nil || inf.Size != int64(len(blob)) {
			t.Fatalf("stat after upload = %+v err=%v", inf, err)
		}
	}
	if heads := e.srvs[dpm1].RequestsByMethod("HEAD"); heads != 0 {
		t.Fatalf("server HEADs = %d, want 0 (201 commit signal primes the cache)", heads)
	}
}

// TestUploadPhantomSuccessCaught: when every chunk gets a 2xx receipt but
// no 201 commit ever arrives (here: a fault swallows one chunk's bytes,
// so the assembly never completes), the upload must verify with the
// server and report failure instead of phantom success.
func TestUploadPhantomSuccessCaught(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone, ChunkSize: 4 << 10, UploadParallelism: 2})
	e.startServer(t, dpm1, httpserv.Options{})

	// One non-probe chunk PUT is answered 202 by the fault layer without
	// its bytes ever reaching the assembly.
	e.faults[dpm1].Set("/phantom", faults.Fault{Status: 202, After: 1, Remaining: 1})

	blob := uploadBlob(32<<10, 48)
	err := e.client.UploadMultiStream(context.Background(), dpm1, "/phantom", bytes.NewReader(blob), int64(len(blob)))
	if err == nil {
		t.Fatal("upload with a swallowed chunk reported success")
	}
	if _, serr := e.stores[dpm1].Stat("/phantom"); !errors.Is(serr, storage.ErrNotFound) {
		t.Fatal("incomplete assembly was committed")
	}

	// Same failure overwriting an existing object of the SAME size: the
	// verification HEAD sees a matching size, so only the checksum
	// comparison can tell the stale predecessor from the new content.
	old := uploadBlob(32<<10, 49)
	e.stores[dpm1].Put("/phantom2", old)
	e.faults[dpm1].Set("/phantom2", faults.Fault{Status: 202, After: 1, Remaining: 1})
	err = e.client.UploadMultiStream(context.Background(), dpm1, "/phantom2", bytes.NewReader(blob), int64(len(blob)))
	if err == nil {
		t.Fatal("failed same-size overwrite reported success (checksum not compared)")
	}
	if got, _, _ := e.stores[dpm1].Get("/phantom2"); !bytes.Equal(got, old) {
		t.Fatal("server object changed despite incomplete upload")
	}
}

// TestConcurrentUploadsRace exercises the upload engine under the race
// detector: many goroutines uploading distinct objects over one shared
// client and pool.
func TestConcurrentUploadsRace(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone, ChunkSize: 1 << 10, UploadParallelism: 3})
	e.startServer(t, dpm1, httpserv.Options{})
	ctx := context.Background()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			blob := uploadBlob(10<<10, int64(100+id))
			path := fmt.Sprintf("/race/%d", id)
			if err := e.client.UploadMultiStream(ctx, dpm1, path, bytes.NewReader(blob), int64(len(blob))); err != nil {
				t.Errorf("upload %d: %v", id, err)
				return
			}
			got, _, err := e.stores[dpm1].Get(path)
			if err != nil || !bytes.Equal(got, blob) {
				t.Errorf("upload %d: stored %d bytes err=%v", id, len(got), err)
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentUploadsSamePathDoNotInterleave: two clients racing
// multi-stream uploads of different content to one path must each keep
// their own server-side assembly (X-Upload-Id); the committed object is
// one upload or the other in full, never a blend.
func TestConcurrentUploadsSamePathDoNotInterleave(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone, ChunkSize: 1 << 10, UploadParallelism: 2})
	e.startServer(t, dpm1, httpserv.Options{})
	ctx := context.Background()

	blobA := uploadBlob(16<<10, 61)
	blobB := uploadBlob(16<<10, 62) // same size, different bytes
	var wg sync.WaitGroup
	for _, blob := range [][]byte{blobA, blobB} {
		wg.Add(1)
		go func(b []byte) {
			defer wg.Done()
			if err := e.client.UploadMultiStream(ctx, dpm1, "/contested", bytes.NewReader(b), int64(len(b))); err != nil {
				t.Errorf("upload: %v", err)
			}
		}(blob)
	}
	wg.Wait()
	got, _, err := e.stores[dpm1].Get("/contested")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blobA) && !bytes.Equal(got, blobB) {
		t.Fatal("committed object is a blend of the two uploads")
	}
}

// rawPutServer accepts connections on a netsim listener and serves PUTs
// without ever sending a 100 Continue interim. With earlyFinal it answers
// 201 right after the headers without reading the body at all.
func rawPutServer(t *testing.T, e *testEnv, addr string, earlyFinal bool, gotBody *int64) {
	t.Helper()
	l, err := e.net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReader(c)
				var contentLength int64
				for {
					line, err := br.ReadString('\n')
					if err != nil {
						return
					}
					line = strings.TrimRight(line, "\r\n")
					if line == "" {
						break
					}
					if v, ok := strings.CutPrefix(line, "Content-Length: "); ok {
						contentLength, _ = strconv.ParseInt(v, 10, 64)
					}
				}
				if !earlyFinal {
					// Stay silent through the client's expect-continue
					// wait, then drain the body it sends anyway.
					n, err := io.CopyN(io.Discard, br, contentLength)
					atomic.AddInt64(gotBody, n)
					if err != nil {
						return
					}
				}
				c.Write([]byte("HTTP/1.1 201 Created\r\nContent-Length: 0\r\n\r\n"))
			}(conn)
		}
	}()
}

// TestPutReaderServerOmits100Continue: RFC 9110 lets a server skip the
// interim response entirely; after expectContinueWait the client must send
// the body anyway and complete the upload.
func TestPutReaderServerOmits100Continue(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the 1s expect-continue timeout")
	}
	e := newEnv(t, Options{Strategy: StrategyNone})
	var gotBody int64
	rawPutServer(t, e, "silent:80", false, &gotBody)

	blob := uploadBlob(8<<10, 63)
	start := time.Now()
	if err := e.client.PutReader(context.Background(), "silent:80", "/f", bytes.NewBuffer(blob), int64(len(blob))); err != nil {
		t.Fatalf("PutReader against silent server: %v", err)
	}
	if atomic.LoadInt64(&gotBody) != int64(len(blob)) {
		t.Fatalf("server received %d body bytes, want %d", gotBody, len(blob))
	}
	if waited := time.Since(start); waited < 500*time.Millisecond {
		t.Fatalf("completed in %v — body sent before the expect-continue wait?", waited)
	}
}

// TestPutReaderImmediateFinal2xx: a server may accept the PUT with a final
// 2xx before the body is sent; that is success, not an error.
func TestPutReaderImmediateFinal2xx(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone})
	var gotBody int64
	rawPutServer(t, e, "eager:80", true, &gotBody)

	blob := uploadBlob(4<<10, 64)
	if err := e.client.PutReader(context.Background(), "eager:80", "/f", bytes.NewBuffer(blob), int64(len(blob))); err != nil {
		t.Fatalf("PutReader against early-2xx server: %v", err)
	}
}

// hushServer accepts connections on a netsim listener, reads each request's
// headers and then never answers: it swallows whatever body follows and
// holds the connection for 10s, a gateway's stall guard, before cutting it.
func hushServer(t *testing.T, e *testEnv, addr string) {
	t.Helper()
	l, err := e.net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					line, err := br.ReadString('\n')
					if err != nil || line == "\r\n" {
						break
					}
				}
				c.SetReadDeadline(time.Now().Add(10 * time.Second))
				io.Copy(io.Discard, br)
			}(conn)
		}
	}()
}

// TestPutReaderHonoursCancel: a streaming PUT to a server that read its
// headers and went silent ends when the caller's context does, and reports
// the context's own error — not the request timeout, not the i/o timeout a
// deadline manufactured — for a body that fits a socket buffer and one that
// does not.
func TestPutReaderHonoursCancel(t *testing.T) {
	bg := context.Background()
	cases := []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
		want error
	}{
		{"cancel", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(bg)
			time.AfterFunc(100*time.Millisecond, cancel)
			return ctx, cancel
		}, context.Canceled},
		{"timeout", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(bg, 100*time.Millisecond)
		}, context.DeadlineExceeded},
	}
	for _, size := range []int{8 << 10, 8 << 20} {
		blob := uploadBlob(size, 65)
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/%dKiB", tc.name, size>>10), func(t *testing.T) {
				e := newEnv(t, Options{Strategy: StrategyNone})
				hushServer(t, e, "hush:80")
				ctx, cancel := tc.ctx()
				defer cancel()
				start := time.Now()
				err := e.client.PutReader(ctx, "hush:80", "/f", bytes.NewBuffer(blob), int64(size))
				if took := time.Since(start); took > time.Second {
					t.Errorf("PutReader returned after %v, want < 1s", took)
				}
				if !errors.Is(err, tc.want) {
					t.Fatalf("err = %v, want %v", err, tc.want)
				}
			})
		}
	}
}

// reapingListener keeps the server side of every connection it accepts, so
// a test can close them all at once: a gateway reaping idle keep-alive
// sessions behind the client's back.
type reapingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *reapingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *reapingListener) reap() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
}

// TestPutReaderReplayRule: a streaming PUT's body can be read only once.
// A recycled connection that turns out dead before any of it was read is
// replayed on a fresh one, like any other request; one that dies after the
// body started leaving its source surfaces the error, and so does a
// redirect that arrives only after the body went out — neither re-sends.
func TestPutReaderReplayRule(t *testing.T) {
	blob := uploadBlob(256<<10, 66)
	ctx := context.Background()

	t.Run("closed while idle", func(t *testing.T) {
		e := newEnv(t, Options{Strategy: StrategyNone})
		srv := httpserv.New(storage.NewMemStore(), httpserv.Options{})
		l, err := e.net.Listen(dpm1)
		if err != nil {
			t.Fatal(err)
		}
		rl := &reapingListener{Listener: l}
		t.Cleanup(func() { l.Close() })
		go srv.Serve(rl)
		if err := e.client.Put(ctx, dpm1, "/warm", []byte("x")); err != nil {
			t.Fatal(err)
		}
		rl.reap()

		cr := &countingReader{r: bytes.NewBuffer(blob)}
		if err := e.client.PutReader(ctx, dpm1, "/f", cr, int64(len(blob))); err != nil {
			t.Fatal(err)
		}
		if cr.n != int64(len(blob)) {
			t.Fatalf("reader consumed %d bytes, want %d (drained once)", cr.n, len(blob))
		}
		if m := e.client.Metrics(); m.Retries != 1 {
			t.Fatalf("Retries = %d, want 1 (the replay on a fresh conn)", m.Retries)
		}
		if puts := srv.RequestsByMethod("PUT"); puts != 2 {
			t.Fatalf("server PUTs = %d, want 2 (the warm-up and the replayed upload)", puts)
		}
	})

	t.Run("cut mid-body", func(t *testing.T) {
		e := newEnv(t, Options{Strategy: StrategyNone})
		e.startServer(t, dpm1, httpserv.Options{})
		// The first connection carries the warm-up PUT, is recycled, and
		// dies on the first large write after it: a body piece.
		cut := &tamperDialer{inner: e.net, onWrite: func(conn int, before int64, p []byte) ([]byte, bool) {
			if conn == 1 && before > 0 && len(p) >= 16<<10 {
				return p[:len(p)/2], true
			}
			return p, false
		}}
		opts := Options{Strategy: StrategyNone, Dialer: cut}
		c, err := NewClient(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if err := c.Put(ctx, dpm1, "/warm", []byte("x")); err != nil {
			t.Fatal(err)
		}

		cr := &countingReader{r: bytes.NewBuffer(blob)}
		if err := c.PutReader(ctx, dpm1, "/f", cr, int64(len(blob))); err == nil {
			t.Fatal("PutReader succeeded over a connection cut mid-body")
		}
		if cr.n == 0 || cr.n > int64(len(blob)) {
			t.Fatalf("reader consumed %d bytes, want some of one pass of %d", cr.n, len(blob))
		}
		if m := c.Metrics(); m.Retries != 0 {
			t.Fatalf("Retries = %d, want 0 (a read body is never re-sent)", m.Retries)
		}
		if dials := e.net.Dials(); dials != 1 {
			t.Fatalf("dials = %d, want 1 (no replay connection)", dials)
		}
		if _, _, err := e.stores[dpm1].Get("/f"); err == nil {
			t.Fatal("a cut upload was committed")
		}
	})

	t.Run("redirected after the body", func(t *testing.T) {
		e := newEnv(t, Options{Strategy: StrategyNone})
		e.startServer(t, "disk1:80", httpserv.Options{})
		l, err := e.net.Listen("late:80")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		// Asks for the body, takes all of it, and only then redirects.
		go func() {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			br := bufio.NewReader(c)
			for {
				line, err := br.ReadString('\n')
				if err != nil || line == "\r\n" {
					break
				}
			}
			c.Write([]byte("HTTP/1.1 100 Continue\r\n\r\n"))
			io.CopyN(io.Discard, br, int64(len(blob)))
			c.Write([]byte("HTTP/1.1 302 Found\r\nLocation: http://disk1:80/f\r\nContent-Length: 0\r\n\r\n"))
		}()

		cr := &countingReader{r: bytes.NewBuffer(blob)}
		err = e.client.PutReader(ctx, "late:80", "/f", cr, int64(len(blob)))
		var se *StatusError
		if !errors.As(err, &se) || se.Code != 302 {
			t.Fatalf("err = %v, want the 302 as a StatusError", err)
		}
		if cr.n != int64(len(blob)) {
			t.Fatalf("reader consumed %d bytes, want %d (one pass)", cr.n, len(blob))
		}
		if puts := e.srvs["disk1:80"].RequestsByMethod("PUT"); puts != 0 {
			t.Fatalf("disk node PUTs = %d, want 0 (a read body is never re-sent)", puts)
		}
	})
}
