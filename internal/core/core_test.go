package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"testing"
	"time"

	"godavix/internal/faults"
	"godavix/internal/httpserv"
	"godavix/internal/metalink"
	"godavix/internal/netsim"
	"godavix/internal/rangev"
	"godavix/internal/storage"
)

// testEnv wires a netsim fabric, one or more DPM servers, and a client.
type testEnv struct {
	net    *netsim.Network
	client *Client
	stores map[string]*storage.MemStore
	srvs   map[string]*httpserv.Server
	faults map[string]*faults.Layer
}

// startServer launches a DPM server on addr over the fabric.
func (e *testEnv) startServer(t *testing.T, addr string, opts httpserv.Options) {
	t.Helper()
	e.startServerHandler(t, addr, opts, nil)
}

// startServerHandler launches a DPM server on addr whose root handler is
// a fault layer around wrap(srv, st), or around the server itself when
// wrap is nil.
func (e *testEnv) startServerHandler(t *testing.T, addr string, opts httpserv.Options,
	wrap func(*httpserv.Server, *storage.MemStore) http.Handler) {
	t.Helper()
	st := storage.NewMemStore()
	srv := httpserv.New(st, opts)
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(srv, st)
	}
	l, err := e.net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	e.faults[addr] = faults.New(h)
	go srv.ServeHandler(l, e.faults[addr])
	e.stores[addr] = st
	e.srvs[addr] = srv
}

func newEnv(t *testing.T, copts Options) *testEnv {
	t.Helper()
	e := &testEnv{
		net:    netsim.New(netsim.Ideal()),
		stores: map[string]*storage.MemStore{},
		srvs:   map[string]*httpserv.Server{},
		faults: map[string]*faults.Layer{},
	}
	copts.Dialer = e.net
	c, err := NewClient(copts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	e.client = c
	return e
}

const dpm1 = "dpm1:80"

// fedReplicas are the storage nodes of replicaEnv, in metalink priority
// order: a multi-stream download from dpm1 rings them in this order, so
// chunk idx's ring primary is fedReplicas[idx%3] while all are healthy.
var fedReplicas = []string{"dpm1:80", "dpm2:80", "dpm3:80"}

// replicaEnv wires the three fedReplicas behind a metalink federation at
// fed:80 and stores blob at /f on each.
func replicaEnv(t *testing.T, copts Options, blob []byte) *testEnv {
	t.Helper()
	e := newEnv(t, copts)
	var urls []metalink.URL
	for i, r := range fedReplicas {
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

func TestGetPutDeleteRoundTrip(t *testing.T) {
	e := newEnv(t, Options{})
	e.startServer(t, dpm1, httpserv.Options{})
	ctx := context.Background()

	data := []byte("high energy physics payload")
	if err := e.client.Put(ctx, dpm1, "/store/f", data); err != nil {
		t.Fatal(err)
	}
	got, err := e.client.Get(ctx, dpm1, "/store/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
	if err := e.client.Delete(ctx, dpm1, "/store/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.client.Get(ctx, dpm1, "/store/f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestSessionRecyclingAcrossRequests(t *testing.T) {
	e := newEnv(t, Options{})
	e.startServer(t, dpm1, httpserv.Options{})
	ctx := context.Background()

	e.stores[dpm1].Put("/f", []byte("x"))
	for i := 0; i < 10; i++ {
		if _, err := e.client.Get(ctx, dpm1, "/f"); err != nil {
			t.Fatal(err)
		}
	}
	if dials := e.net.Dials(); dials != 1 {
		t.Fatalf("network dials = %d, want 1 (session recycling)", dials)
	}
	st := e.client.Snapshot().Pool
	if st.Reuses != 9 {
		t.Fatalf("pool reuses = %d, want 9", st.Reuses)
	}
}

func TestNoKeepAliveServerForcesRedial(t *testing.T) {
	e := newEnv(t, Options{})
	e.startServer(t, dpm1, httpserv.Options{DisableKeepAlive: true})
	ctx := context.Background()

	e.stores[dpm1].Put("/f", []byte("x"))
	for i := 0; i < 5; i++ {
		if _, err := e.client.Get(ctx, dpm1, "/f"); err != nil {
			t.Fatal(err)
		}
	}
	if dials := e.net.Dials(); dials != 5 {
		t.Fatalf("network dials = %d, want 5 without keep-alive", dials)
	}
}

func TestGetRange(t *testing.T) {
	e := newEnv(t, Options{})
	e.startServer(t, dpm1, httpserv.Options{})
	ctx := context.Background()

	blob := make([]byte, 1000)
	rand.New(rand.NewSource(1)).Read(blob)
	e.stores[dpm1].Put("/f", blob)

	got, err := e.client.GetRange(ctx, dpm1, "/f", 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob[100:150]) {
		t.Fatal("range content mismatch")
	}

	// Range beyond EOF is clamped by the server (206 of the tail).
	got, err = e.client.GetRange(ctx, dpm1, "/f", 990, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob[990:]) {
		t.Fatalf("tail range = %d bytes", len(got))
	}
	// A range wholly past EOF is the server's 416.
	if _, err := e.client.GetRange(ctx, dpm1, "/f", 2000, 50); err == nil {
		t.Fatal("range wholly past EOF succeeded")
	}
}

func TestReadVecScattersExactBytes(t *testing.T) {
	e := newEnv(t, Options{CoalesceGap: 32})
	e.startServer(t, dpm1, httpserv.Options{})
	ctx := context.Background()

	blob := make([]byte, 64<<10)
	rand.New(rand.NewSource(2)).Read(blob)
	e.stores[dpm1].Put("/f", blob)

	rng := rand.New(rand.NewSource(3))
	ranges := make([]rangev.Range, 200)
	dsts := make([][]byte, len(ranges))
	for i := range ranges {
		off := rng.Int63n(int64(len(blob) - 512))
		ranges[i] = rangev.Range{Off: off, Len: rng.Int63n(511) + 1}
		dsts[i] = make([]byte, ranges[i].Len)
	}
	if err := e.client.ReadVec(ctx, dpm1, "/f", ranges, dsts); err != nil {
		t.Fatal(err)
	}
	for i, r := range ranges {
		if !bytes.Equal(dsts[i], blob[r.Off:r.End()]) {
			t.Fatalf("range %d mismatch", i)
		}
	}
	// The entire vectored read must have used very few HTTP requests.
	if got := e.srvs[dpm1].RequestsByMethod("GET"); got > 3 {
		t.Fatalf("GET requests = %d, expected few (vectored)", got)
	}
}

func TestReadVecSingleFrame(t *testing.T) {
	e := newEnv(t, Options{})
	e.startServer(t, dpm1, httpserv.Options{})
	ctx := context.Background()

	blob := []byte("abcdefghijklmnopqrstuvwxyz")
	e.stores[dpm1].Put("/f", blob)

	ranges := []rangev.Range{{Off: 2, Len: 3}, {Off: 5, Len: 5}} // touching: one frame
	dsts := [][]byte{make([]byte, 3), make([]byte, 5)}
	if err := e.client.ReadVec(ctx, dpm1, "/f", ranges, dsts); err != nil {
		t.Fatal(err)
	}
	if string(dsts[0]) != "cde" || string(dsts[1]) != "fghij" {
		t.Fatalf("dsts = %q %q", dsts[0], dsts[1])
	}
}

func TestReadVecBatching(t *testing.T) {
	e := newEnv(t, Options{MaxRangesPerRequest: 4})
	e.startServer(t, dpm1, httpserv.Options{})
	ctx := context.Background()

	blob := make([]byte, 8192)
	rand.New(rand.NewSource(4)).Read(blob)
	e.stores[dpm1].Put("/f", blob)

	// 10 widely-spaced fragments → 10 frames → 3 batches of ≤4.
	ranges := make([]rangev.Range, 10)
	dsts := make([][]byte, 10)
	for i := range ranges {
		ranges[i] = rangev.Range{Off: int64(i) * 800, Len: 16}
		dsts[i] = make([]byte, 16)
	}
	if err := e.client.ReadVec(ctx, dpm1, "/f", ranges, dsts); err != nil {
		t.Fatal(err)
	}
	for i, r := range ranges {
		if !bytes.Equal(dsts[i], blob[r.Off:r.End()]) {
			t.Fatalf("range %d mismatch", i)
		}
	}
	if got := e.srvs[dpm1].RequestsByMethod("GET"); got != 3 {
		t.Fatalf("GET requests = %d, want 3 batches", got)
	}
}

func TestReadVecValidation(t *testing.T) {
	e := newEnv(t, Options{})
	e.startServer(t, dpm1, httpserv.Options{})
	ctx := context.Background()
	if err := e.client.ReadVec(ctx, dpm1, "/f", nil, nil); err == nil {
		t.Fatal("empty ranges accepted")
	}
	err := e.client.ReadVec(ctx, dpm1, "/f",
		[]rangev.Range{{Off: 0, Len: 8}}, [][]byte{make([]byte, 4)})
	if err == nil {
		t.Fatal("small destination accepted")
	}
}

func TestStatAndList(t *testing.T) {
	e := newEnv(t, Options{})
	e.startServer(t, dpm1, httpserv.Options{})
	ctx := context.Background()

	e.client.Mkdir(ctx, dpm1, "/data")
	e.client.Put(ctx, dpm1, "/data/a", []byte("1"))
	e.client.Put(ctx, dpm1, "/data/bb", []byte("22"))

	inf, err := e.client.Stat(ctx, dpm1, "/data/bb")
	if err != nil {
		t.Fatal(err)
	}
	if inf.Size != 2 || inf.Dir {
		t.Fatalf("stat = %+v", inf)
	}
	if inf.Checksum == "" {
		t.Fatal("checksum header not propagated")
	}

	ls, err := e.client.List(ctx, dpm1, "/data")
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 2 || ls[0].Path != "/data/a" || ls[1].Size != 2 {
		t.Fatalf("list = %+v", ls)
	}

	if _, err := e.client.Stat(ctx, dpm1, "/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stat missing err = %v", err)
	}
}

// oneShotServer serves exactly one canned HTTP response per connection and
// then closes it *without* Connection: close — the classic stale-keepalive
// scenario the Do retry path must absorb.
func oneShotServer(t *testing.T, l net.Listener, body string) {
	t.Helper()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 4096)
				// Read the request head (best effort).
				c.Read(buf)
				fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
			}(c)
		}
	}()
}

func TestRetryOnStaleRecycledConnection(t *testing.T) {
	e := newEnv(t, Options{})
	l, err := e.net.Listen("flaky:80")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	oneShotServer(t, l, "ok")
	ctx := context.Background()

	// First request succeeds and the connection is recycled (the response
	// claimed keep-alive). The server then silently closed it.
	for i := 0; i < 3; i++ {
		got, err := e.client.Get(ctx, "flaky:80", "/f")
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if string(got) != "ok" {
			t.Fatalf("request %d body = %q", i, got)
		}
	}
}

func TestFailoverToSecondReplica(t *testing.T) {
	e := newEnv(t, Options{MetalinkHost: "fed:80"})
	e.startServer(t, dpm1, httpserv.Options{})
	e.startServer(t, "dpm2:80", httpserv.Options{})

	// Larger than the ends Open keeps, and read between them, so the
	// reads go to a replica.
	blob := bytes.Repeat([]byte("replicated payload"), 8<<10)
	e.stores[dpm1].Put("/store/f", blob)
	e.stores["dpm2:80"].Put("/store/f", blob)

	ml := &metalink.Metalink{
		Name: "f", Size: int64(len(blob)),
		URLs: []metalink.URL{
			{Loc: "http://dpm1:80/store/f", Priority: 1},
			{Loc: "http://dpm2:80/store/f", Priority: 2},
		},
	}
	e.startServer(t, "fed:80", httpserv.Options{
		Metalinks: func(p string) *metalink.Metalink {
			if p == "/store/f" {
				return ml
			}
			return nil
		},
	})

	ctx := context.Background()
	// Healthy primary: no metalink traffic at all (failover is free).
	f, err := e.client.Open(ctx, dpm1, "/store/f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	if _, err := f.ReadAt(buf, 8<<10); err != nil {
		t.Fatal(err)
	}
	if got := e.srvs["fed:80"].Requests(); got != 0 {
		t.Fatalf("federation contacted %d times while primary healthy", got)
	}

	// Kill the primary: reads must transparently move to dpm2.
	e.net.SetDown(dpm1, true)
	e.client.CloseIdlePool(dpm1)
	buf2 := make([]byte, len(blob))
	n, err := f.ReadAt(buf2, 0)
	if err != nil {
		t.Fatalf("failover read: %v", err)
	}
	if !bytes.Equal(buf2[:n], blob) {
		t.Fatalf("failover content = %q", buf2[:n])
	}
	if got := e.srvs["fed:80"].Requests(); got == 0 {
		t.Fatal("federation never consulted for metalink")
	}
}

func TestFailoverAllReplicasDead(t *testing.T) {
	e := newEnv(t, Options{MetalinkHost: "fed:80"})
	e.startServer(t, dpm1, httpserv.Options{})
	ml := &metalink.Metalink{
		Name: "f", Size: 1,
		URLs: []metalink.URL{{Loc: "http://dpm1:80/f", Priority: 1}},
	}
	e.startServer(t, "fed:80", httpserv.Options{
		Metalinks: func(string) *metalink.Metalink { return ml },
	})
	e.stores[dpm1].Put("/f", []byte("x"))
	e.net.SetDown(dpm1, true)

	ctx := context.Background()
	_, err := e.client.Open(ctx, dpm1, "/f")
	if !errors.Is(err, ErrAllReplicasFailed) {
		t.Fatalf("err = %v, want ErrAllReplicasFailed", err)
	}
}

func TestFailoverNotTriggeredOn404(t *testing.T) {
	e := newEnv(t, Options{MetalinkHost: "fed:80"})
	e.startServer(t, dpm1, httpserv.Options{})
	e.startServer(t, "fed:80", httpserv.Options{
		Metalinks: func(string) *metalink.Metalink {
			t.Error("metalink consulted for a 404")
			return nil
		},
	})
	ctx := context.Background()
	_, err := e.client.Open(ctx, dpm1, "/definitely-missing")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestFailoverOn503(t *testing.T) {
	e := newEnv(t, Options{MetalinkHost: "fed:80"})
	e.startServer(t, dpm1, httpserv.Options{})
	e.startServer(t, "fed:80", httpserv.Options{
		Metalinks: func(p string) *metalink.Metalink {
			return &metalink.Metalink{
				Name: "f", Size: 4,
				URLs: []metalink.URL{{Loc: "http://dpm2:80/f", Priority: 1}},
			}
		},
	})
	e.startServer(t, "dpm2:80", httpserv.Options{})
	e.stores[dpm1].Put("/f", []byte("data"))
	e.stores["dpm2:80"].Put("/f", []byte("data"))
	// Primary serves 503s (overloaded) but can still hand out metalinks.
	e.faults[dpm1].Set("/f", faults.Fault{Status: 503})

	ctx := context.Background()
	f, err := e.client.Open(ctx, dpm1, "/f")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "data" {
		t.Fatalf("got %q", got)
	}
}

func TestFileReadSeek(t *testing.T) {
	e := newEnv(t, Options{})
	e.startServer(t, dpm1, httpserv.Options{})
	blob := []byte("0123456789abcdef")
	e.stores[dpm1].Put("/f", blob)
	ctx := context.Background()

	f, err := e.client.Open(ctx, dpm1, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != int64(len(blob)) {
		t.Fatalf("size = %d", f.Size())
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(f, buf); err != nil || string(buf) != "0123" {
		t.Fatalf("read1 = %q err=%v", buf, err)
	}
	if _, err := f.Seek(10, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(f, buf); err != nil || string(buf) != "abcd" {
		t.Fatalf("read2 = %q err=%v", buf, err)
	}
	if _, err := f.Seek(-2, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	n, err := f.Read(make([]byte, 10))
	if n != 2 || (err != nil && err != io.EOF) {
		t.Fatalf("tail read n=%d err=%v", n, err)
	}
	// Read past EOF.
	if _, err := f.ReadAt(buf, f.Size()); err != io.EOF {
		t.Fatalf("past-EOF err = %v", err)
	}
}

func TestMultiStreamDownload(t *testing.T) {
	e := newEnv(t, Options{
		MetalinkHost: "fed:80",
		ChunkSize:    1 << 10,
		MaxStreams:   3,
	})
	blob := make([]byte, 10<<10+37) // not chunk-aligned
	rand.New(rand.NewSource(5)).Read(blob)

	replicas := []string{"dpm1:80", "dpm2:80", "dpm3:80"}
	var urls []metalink.URL
	for i, r := range replicas {
		e.startServer(t, r, httpserv.Options{})
		e.stores[r].Put("/f", blob)
		urls = append(urls, metalink.URL{Loc: "http://" + r + "/f", Priority: i + 1})
	}
	ml := &metalink.Metalink{Name: "f", Size: int64(len(blob)), URLs: urls}
	e.startServer(t, "fed:80", httpserv.Options{
		Metalinks: func(string) *metalink.Metalink { return ml },
	})

	ctx := context.Background()
	got, err := e.client.DownloadMultiStream(ctx, "dpm1:80", "/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("multi-stream content mismatch")
	}
	// Load is spread: every replica served something.
	for _, r := range replicas {
		if e.srvs[r].RequestsByMethod("GET") == 0 {
			t.Fatalf("replica %s served nothing", r)
		}
	}
}

func TestMultiStreamSurvivesDeadReplica(t *testing.T) {
	e := newEnv(t, Options{MetalinkHost: "fed:80", ChunkSize: 512, MaxStreams: 2})
	blob := make([]byte, 4<<10)
	rand.New(rand.NewSource(6)).Read(blob)

	for _, r := range []string{"dpm1:80", "dpm2:80"} {
		e.startServer(t, r, httpserv.Options{})
		e.stores[r].Put("/f", blob)
	}
	ml := &metalink.Metalink{
		Name: "f", Size: int64(len(blob)),
		URLs: []metalink.URL{
			{Loc: "http://dpm1:80/f", Priority: 1},
			{Loc: "http://dpm2:80/f", Priority: 2},
		},
	}
	e.startServer(t, "fed:80", httpserv.Options{
		Metalinks: func(string) *metalink.Metalink { return ml },
	})
	e.net.SetDown("dpm2:80", true)

	ctx := context.Background()
	got, err := e.client.DownloadMultiStream(ctx, "dpm1:80", "/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("content mismatch with dead replica")
	}
}

func TestRequestTimeout(t *testing.T) {
	e := newEnv(t, Options{RequestTimeout: 30 * time.Millisecond})
	e.startServer(t, dpm1, httpserv.Options{})
	e.stores[dpm1].Put("/slow", []byte("x"))
	e.faults[dpm1].Set("/slow", faults.Fault{Delay: 500 * time.Millisecond})

	ctx := context.Background()
	start := time.Now()
	_, err := e.client.Get(ctx, dpm1, "/slow")
	if err == nil {
		t.Fatal("expected timeout")
	}
	if time.Since(start) > 300*time.Millisecond {
		t.Fatalf("timeout too late: %v", time.Since(start))
	}
}

// TestZeroOptionsDialTCP: a nil Dialer dials real TCP, so the zero
// Options complete a Put and a Get against a gateway on a loopback
// listener.
func TestZeroOptionsDialTCP(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go httpserv.New(storage.NewMemStore(), httpserv.Options{}).Serve(l)

	c, err := NewClient(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx := context.Background()
	host := l.Addr().String()
	if err := c.Put(ctx, host, "/f", []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Get(ctx, host, "/f"); err != nil || string(got) != "over tcp" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestGetMetalinkDirect(t *testing.T) {
	e := newEnv(t, Options{})
	ml := &metalink.Metalink{
		Name: "f", Size: 9,
		URLs: []metalink.URL{{Loc: "http://dpm1:80/f", Priority: 1}},
	}
	e.startServer(t, dpm1, httpserv.Options{
		Metalinks: func(p string) *metalink.Metalink {
			if p == "/f" {
				return ml
			}
			return nil
		},
	})
	got, err := e.client.GetMetalink(context.Background(), dpm1, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != 9 || len(got.URLs) != 1 {
		t.Fatalf("metalink = %+v", got)
	}
	if _, err := e.client.GetMetalink(context.Background(), dpm1, "/none"); err == nil {
		t.Fatal("expected error for missing metalink")
	}
}

// TestMetalinkProbeNeverDrainsPayload guards the discovery probe's byte
// cost: a server with no Metalink support answers the negotiated GET with
// the object body itself, and GetMetalink must give up after the headers
// (ErrNoMetalink) instead of draining an object-sized body. A multi-stream
// download against such a server must likewise pay for the payload roughly
// once, not once per probe.
func TestMetalinkProbeNeverDrainsPayload(t *testing.T) {
	e := newEnv(t, Options{ChunkSize: 1 << 20, MaxStreams: 4})
	e.startServer(t, dpm1, httpserv.Options{}) // no Metalinks provider
	size := int64(8) << 20
	blob := make([]byte, size)
	rand.New(rand.NewSource(65)).Read(blob)
	e.stores[dpm1].Put("/store/big", blob)

	ctx := context.Background()
	if _, err := e.client.GetMetalink(ctx, dpm1, "/store/big"); !errors.Is(err, ErrNoMetalink) {
		t.Fatalf("err = %v, want ErrNoMetalink", err)
	}
	// The probe read headers plus at most the 64KiB salvage drain.
	if got := e.client.Metrics().BytesDown; got > 128<<10 {
		t.Fatalf("probe drained %d bytes from an %d-byte object", got, size)
	}

	f, err := os.CreateTemp(t.TempDir(), "mlprobe-*.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, err := e.client.DownloadMultiStreamTo(ctx, dpm1, "/store/big", f)
	if err != nil || n != size {
		t.Fatalf("n=%d err=%v", n, err)
	}
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("content mismatch")
	}
	// One payload plus probe salvage + headers, never two payloads.
	if bd := e.client.Metrics().BytesDown; bd > size+256<<10 {
		t.Fatalf("BytesDown = %d for one %d-byte download: probe drained the body", bd, size)
	}
}
