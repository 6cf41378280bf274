package davix

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"godavix/internal/faults"
	"godavix/internal/httpserv"
	"godavix/internal/metalink"
	"godavix/internal/netsim"
	"godavix/internal/storage"
)

// startFabric brings up a DPM server on a simulated network and returns a
// public-API client wired to it.
func startFabric(t *testing.T, opts Options) (*netsim.Network, *storage.MemStore, *Client) {
	t.Helper()
	n := netsim.New(netsim.Ideal())
	st := storage.NewMemStore()
	srv := httpserv.New(st, httpserv.Options{})
	l, err := n.Listen("dpm1:80")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go srv.Serve(l)

	opts.Dialer = n
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return n, st, c
}

func TestPublicLifecycle(t *testing.T) {
	_, _, c := startFabric(t, Options{Strategy: StrategyNone})
	ctx := context.Background()

	if err := c.Mkdir(ctx, "http://dpm1:80/data"); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, "http://dpm1:80/data/f", []byte("public api")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(ctx, "http://dpm1:80/data/f")
	if err != nil || string(got) != "public api" {
		t.Fatalf("get = %q err=%v", got, err)
	}
	inf, err := c.Stat(ctx, "http://dpm1:80/data/f")
	if err != nil || inf.Size != 10 {
		t.Fatalf("stat = %+v err=%v", inf, err)
	}
	ls, err := c.List(ctx, "http://dpm1:80/data")
	if err != nil || len(ls) != 1 {
		t.Fatalf("list = %+v err=%v", ls, err)
	}
	if err := c.Delete(ctx, "http://dpm1:80/data/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "http://dpm1:80/data/f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestPublicFileAndVectored(t *testing.T) {
	_, st, c := startFabric(t, Options{Strategy: StrategyNone, CoalesceGap: 64})
	ctx := context.Background()

	blob := make([]byte, 32<<10)
	rand.New(rand.NewSource(1)).Read(blob)
	st.Put("/f", blob)

	f, err := c.Open(ctx, "http://dpm1:80/f")
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != int64(len(blob)) {
		t.Fatalf("size = %d", f.Size())
	}
	buf := make([]byte, 100)
	if _, err := f.ReadAt(buf, 5000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, blob[5000:5100]) {
		t.Fatal("ReadAt mismatch")
	}

	ranges := []Range{{Off: 10, Len: 20}, {Off: 1000, Len: 50}, {Off: 30000, Len: 100}}
	dsts := [][]byte{make([]byte, 20), make([]byte, 50), make([]byte, 100)}
	if err := c.ReadVec(ctx, "http://dpm1:80/f", ranges, dsts); err != nil {
		t.Fatal(err)
	}
	for i, r := range ranges {
		if !bytes.Equal(dsts[i], blob[r.Off:r.End()]) {
			t.Fatalf("range %d mismatch", i)
		}
	}

	// Sequential io.Reader usage.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	all, err := io.ReadAll(f)
	if err != nil || !bytes.Equal(all, blob) {
		t.Fatalf("ReadAll: %d bytes err=%v", len(all), err)
	}
}

func TestPublicGetRange(t *testing.T) {
	_, st, c := startFabric(t, Options{Strategy: StrategyNone})
	st.Put("/f", []byte("0123456789"))
	got, err := c.GetRange(context.Background(), "http://dpm1:80/f", 3, 4)
	if err != nil || string(got) != "3456" {
		t.Fatalf("got %q err=%v", got, err)
	}
}

func TestPublicPoolStats(t *testing.T) {
	_, st, c := startFabric(t, Options{Strategy: StrategyNone})
	st.Put("/f", []byte("x"))
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := c.Get(ctx, "http://dpm1:80/f"); err != nil {
			t.Fatal(err)
		}
	}
	if ps := c.Snapshot().Pool; ps.Dials != 1 || ps.Reuses != 3 {
		t.Fatalf("dials=%d reuses=%d", ps.Dials, ps.Reuses)
	}
}

// TestPublicObservability exercises the public observability surface in
// one pass: Options.Trace receives events, Snapshot unifies the three stat
// surfaces, and MetricsHandler serves them as Prometheus text.
func TestPublicObservability(t *testing.T) {
	var requests, cacheHits int64
	var mu sync.Mutex
	_, st, c := startFabric(t, Options{
		Strategy:  StrategyNone,
		CacheSize: 1 << 20,
		Trace: &ClientTrace{
			Request:  func(method, host, path string) { mu.Lock(); requests++; mu.Unlock() },
			CacheHit: func(key string, blocks int64) { mu.Lock(); cacheHits += blocks; mu.Unlock() },
		},
	})
	st.Put("/f", []byte("observable payload"))
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := c.GetRange(ctx, "http://dpm1:80/f", 0, 10); err != nil {
			t.Fatal(err)
		}
	}

	mu.Lock()
	gotReqs, gotHits := requests, cacheHits
	mu.Unlock()
	if gotReqs == 0 {
		t.Error("trace saw no requests")
	}
	if gotHits == 0 {
		t.Error("trace saw no cache hits (reads 2-3 should hit)")
	}

	s := c.Snapshot()
	if s.Engine.Requests == 0 || s.Pool.Dials == 0 || s.Cache.Hits == 0 {
		t.Fatalf("snapshot misses a surface: %+v", s)
	}

	rec := httptest.NewRecorder()
	c.MetricsHandler("davix_client").ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"davix_client_requests_total",
		"davix_client_cache_hits_total",
		"davix_client_pool_dials_total",
		`davix_client_op_latency_seconds{op="GET(range)",quantile="0.5"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestPublicBadURLs(t *testing.T) {
	_, _, c := startFabric(t, Options{})
	ctx := context.Background()
	for _, u := range []string{"ftp://h/f", "http:///f"} {
		if _, err := c.Get(ctx, u); err == nil {
			t.Errorf("accepted %q", u)
		}
	}
}

func TestPublicFailoverIntegration(t *testing.T) {
	n := netsim.New(netsim.Ideal())
	blob := []byte("replicated")
	for _, addr := range []string{"dpm1:80", "dpm2:80"} {
		st := storage.NewMemStore()
		st.Put("/f", blob)
		srv := httpserv.New(st, httpserv.Options{})
		l, err := n.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go srv.Serve(l)
	}
	ml := &metalink.Metalink{
		Name: "f", Size: int64(len(blob)),
		URLs: []metalink.URL{
			{Loc: "http://dpm1:80/f", Priority: 1},
			{Loc: "http://dpm2:80/f", Priority: 2},
		},
	}
	fedSrv := httpserv.New(storage.NewMemStore(), httpserv.Options{
		Metalinks: func(string) *metalink.Metalink { return ml },
	})
	fl, err := n.Listen("fed:80")
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	go fedSrv.Serve(fl)

	c, err := New(Options{Dialer: n, Strategy: StrategyFailover, MetalinkHost: "fed:80"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	n.SetDown("dpm1:80", true)
	got, err := c.Get(ctx, "http://dpm1:80/f")
	if err != nil || string(got) != "replicated" {
		t.Fatalf("failover get = %q err=%v", got, err)
	}
}

func TestPublicWalkAndCopy(t *testing.T) {
	n := netsim.New(netsim.Ideal())
	stores := map[string]*storage.MemStore{}
	var copier *Client
	for _, addr := range []string{"src:80", "dst:80"} {
		st := storage.NewMemStore()
		stores[addr] = st
		opts := httpserv.Options{}
		if addr == "src:80" {
			// The source site pushes third-party copies via its own client.
			cc, err := New(Options{Dialer: n, Strategy: StrategyNone})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cc.Close)
			copier = cc
			opts.Copier = cc.core
		}
		srv := httpserv.New(st, opts)
		l, err := n.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go srv.Serve(l)
	}
	_ = copier
	stores["src:80"].Put("/tree/a/f1", []byte("1"))
	stores["src:80"].Put("/tree/f2", []byte("22"))

	c, err := New(Options{Dialer: n, Strategy: StrategyNone})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	var seen []string
	err = c.Walk(ctx, "http://src:80/tree", func(inf Info) error {
		seen = append(seen, inf.Path)
		return nil
	})
	if err != nil || len(seen) != 4 {
		t.Fatalf("walk = %v err=%v", seen, err)
	}

	if err := c.Copy(ctx, "http://src:80/tree/f2", "http://dst:80/imported/f2"); err != nil {
		t.Fatal(err)
	}
	got, _, err := stores["dst:80"].Get("/imported/f2")
	if err != nil || string(got) != "22" {
		t.Fatalf("copied content = %q err=%v", got, err)
	}
}

func TestPublicAuthAndChecksums(t *testing.T) {
	n := netsim.New(netsim.Ideal())
	st := storage.NewMemStore()
	st.Put("/f", []byte("locked"))
	srv := httpserv.New(st, httpserv.Options{
		Authorize: func(a string) bool { return a == "Bearer tok" },
	})
	l, err := n.Listen("s:80")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)

	c, err := New(Options{
		Dialer:          n,
		Strategy:        StrategyNone,
		Auth:            &Credentials{Bearer: "tok"},
		VerifyTransfers: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Get(context.Background(), "http://s:80/f")
	if err != nil || string(got) != "locked" {
		t.Fatalf("got %q err=%v", got, err)
	}
}

func TestPublicCacheOptionsAndStats(t *testing.T) {
	_, st, c := startFabric(t, Options{
		Strategy:      StrategyNone,
		CacheSize:     1 << 20,
		BlockSize:     1 << 10,
		PrefetchDepth: 2,
		StatTTL:       time.Minute,
	})
	ctx := context.Background()

	// Larger than the ends Open keeps, and read between them, so the
	// reads go through the block cache.
	blob := make([]byte, 96<<10)
	rand.New(rand.NewSource(9)).Read(blob)
	st.Put("/f", blob)

	f, err := c.Open(ctx, "http://dpm1:80/f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	for i := 0; i < 3; i++ {
		if _, err := f.ReadAt(buf, 8<<10); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf, blob[8<<10:10<<10]) {
		t.Fatal("cached read corrupt")
	}
	cs := c.Snapshot().Cache
	if cs.Hits == 0 || cs.Misses == 0 {
		t.Fatalf("cache stats = %+v, want hits and misses", cs)
	}
	if _, err := c.Stat(ctx, "http://dpm1:80/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat(ctx, "http://dpm1:80/f"); err != nil {
		t.Fatal(err)
	}
	if cs := c.Snapshot().Cache; cs.StatHits == 0 {
		t.Fatalf("stat cache never hit: %+v", cs)
	}

	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(buf, 0); !errors.Is(err, ErrFileClosed) {
		t.Fatalf("ReadAt after Close = %v, want ErrFileClosed", err)
	}
}

// TestPublicWalkParallelism: the WalkParallelism option must not change
// the emission order seen through the public API.
func TestPublicWalkParallelism(t *testing.T) {
	n, st, _ := startFabric(t, Options{Strategy: StrategyNone})
	for _, p := range []string{"/ns/b/x", "/ns/b/y", "/ns/a/z", "/ns/top"} {
		st.Put(p, []byte("d"))
	}

	walk := func(par int) []string {
		c, err := New(Options{Dialer: n, Strategy: StrategyNone, WalkParallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var paths []string
		err = c.Walk(context.Background(), "http://dpm1:80/ns", func(inf Info) error {
			paths = append(paths, inf.Path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return paths
	}
	serial := walk(1)
	parallel := walk(6)
	if len(serial) != 7 {
		t.Fatalf("serial walk = %v", serial)
	}
	for i := range serial {
		if parallel[i] != serial[i] {
			t.Fatalf("order diverged at %d: %q vs %q", i, parallel[i], serial[i])
		}
	}
}

// writerAtBuf is a minimal concurrent-safe io.WriterAt over a fixed buffer.
type writerAtBuf struct {
	mu sync.Mutex
	b  []byte
}

func (w *writerAtBuf) WriteAt(p []byte, off int64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	copy(w.b[off:], p)
	return len(p), nil
}

// TestPublicTransferEngine drives the four transfer APIs end to end
// through the public surface: streaming put, multi-stream upload,
// zero-materialization download, and pull-mode copy.
func TestPublicTransferEngine(t *testing.T) {
	n, st, c := startFabric(t, Options{
		Strategy:          StrategyNone,
		ChunkSize:         4 << 10,
		UploadParallelism: 4,
	})
	// A second server to copy to.
	st2 := storage.NewMemStore()
	srv2 := httpserv.New(st2, httpserv.Options{})
	l2, err := n.Listen("dpm2:80")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l2.Close() })
	go srv2.Serve(l2)

	ctx := context.Background()
	blob := make([]byte, 48<<10)
	rand.New(rand.NewSource(71)).Read(blob)

	if err := c.PutReader(ctx, "http://dpm1:80/t/streamed", bytes.NewBuffer(blob), int64(len(blob))); err != nil {
		t.Fatal(err)
	}
	if got, _, err := st.Get("/t/streamed"); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("PutReader stored %d bytes err=%v", len(got), err)
	}

	if err := c.UploadMultiStream(ctx, "http://dpm1:80/t/ms", bytes.NewReader(blob), int64(len(blob))); err != nil {
		t.Fatal(err)
	}
	if got, _, err := st.Get("/t/ms"); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("UploadMultiStream stored %d bytes err=%v", len(got), err)
	}

	w := &writerAtBuf{b: make([]byte, len(blob))}
	nn, err := c.DownloadMultiStreamTo(ctx, "http://dpm1:80/t/ms", w)
	if err != nil || nn != int64(len(blob)) || !bytes.Equal(w.b, blob) {
		t.Fatalf("DownloadMultiStreamTo n=%d err=%v", nn, err)
	}

	if err := c.CopyStream(ctx, "http://dpm1:80/t/ms", "http://dpm2:80/t/copied"); err != nil {
		t.Fatal(err)
	}
	if got, _, err := st2.Get("/t/copied"); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("CopyStream stored %d bytes err=%v", len(got), err)
	}
}

// TestPublicMetricsAndRetry: Options.Retry reaches the engine and
// Snapshot().Engine reports what the client actually did.
func TestPublicMetricsAndRetry(t *testing.T) {
	n := netsim.New(netsim.Ideal())
	st := storage.NewMemStore()
	srv := httpserv.New(st, httpserv.Options{})
	fl := faults.New(srv)
	l, err := n.Listen("dpm1:80")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go srv.ServeHandler(l, fl)

	c, err := New(Options{
		Dialer:   n,
		Strategy: StrategyNone,
		Retry: RetryPolicy{
			Attempts:    3,
			BaseBackoff: time.Millisecond,
			Jitter:      func(time.Duration) time.Duration { return 0 },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx := context.Background()

	st.Put("/f", []byte("observable"))
	fl.Set("/f", faults.Fault{Status: 503, Remaining: 1})
	got, err := c.Get(ctx, "http://dpm1:80/f")
	if err != nil || string(got) != "observable" {
		t.Fatalf("get = %q err=%v", got, err)
	}

	m := c.Snapshot().Engine
	if m.Requests != 2 || m.Retries != 1 {
		t.Fatalf("requests=%d retries=%d, want 2/1", m.Requests, m.Retries)
	}
	if m.BytesUp <= 0 || m.BytesDown <= 0 {
		t.Fatalf("bytes up/down = %d/%d", m.BytesUp, m.BytesDown)
	}
	if op := m.Ops["GET"]; op.Count != 1 || op.P50 <= 0 {
		t.Fatalf("Ops[GET] = %+v", op)
	}
}
