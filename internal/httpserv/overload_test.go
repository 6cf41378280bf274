package httpserv

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"godavix/internal/obs"
	"godavix/internal/storage"
)

func snapValue(t *testing.T, s *Server, name string) int64 {
	t.Helper()
	for _, c := range s.Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	t.Fatalf("snapshot has no counter %q", name)
	return 0
}

// The overload tests below hold the gateway's overload contract by exact
// counts. A gate holds admitted requests in flight until the test opens
// it, so the test, not the host's speed, decides when a slot frees; no
// test compares two wall-clock runs. Every admitted well-behaved request
// is checked to end 2xx: none is accepted and then failed.

// queuePatience is the QueueWait of tests whose queued requests must not
// be shed, and how long a test waits for a counter before failing.
const queuePatience = 5 * time.Second

// gate holds every request that reaches it until the test opens it.
type gate struct {
	arrived chan struct{}
	opened  chan struct{}
	once    sync.Once
}

// newGate returns a shut gate that t opens when it ends, before the test
// server's Close waits for the requests it holds. Call it after the test
// server is built.
func newGate(t *testing.T) *gate {
	g := &gate{arrived: make(chan struct{}, 64), opened: make(chan struct{})}
	t.Cleanup(g.open)
	return g
}

func (g *gate) hold() {
	g.arrived <- struct{}{}
	<-g.opened
}

// wait blocks until n more requests have reached the gate.
func (g *gate) wait(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-g.arrived:
		case <-time.After(queuePatience):
			t.Fatalf("%d of %d requests reached the gate", i, n)
		}
	}
}

func (g *gate) open() { g.once.Do(func() { close(g.opened) }) }

// gatedStore is a store whose Get and Put wait at a gate. The gate sits
// behind admission: a request it holds keeps its in-flight slot. The
// embedded interface hides MemStore.PutSummed, so every commit is a Put.
type gatedStore struct {
	storage.Store
	g *gate
}

func (s *gatedStore) Get(p string) ([]byte, storage.Info, error) {
	s.g.hold()
	return s.Store.Get(p)
}

func (s *gatedStore) Put(p string, data []byte) error {
	s.g.hold()
	return s.Store.Put(p, data)
}

// newGatedServer serves a gatedStore behind a new gate; the MemStore
// behind it is returned for seeding and inspection.
func newGatedServer(t *testing.T, opts Options) (*Server, *httptest.Server, *gate, *storage.MemStore) {
	t.Helper()
	mem := storage.NewMemStore()
	st := &gatedStore{Store: mem}
	srv := New(st, opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	st.g = newGate(t)
	return srv, ts, st.g, mem
}

// reply is the part of a response the overload tests assert on.
type reply struct {
	status     int
	retryAfter string
	err        error
}

// do sends one request as bearer token (none when empty) and drains its
// response.
func do(ts *httptest.Server, method, path, token string, body []byte) reply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		return reply{err: err}
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if method == "PROPFIND" {
		req.Header.Set("Depth", "1")
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return reply{err: err}
	}
	return reply{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
}

// goDo runs do in the background.
func goDo(ts *httptest.Server, method, path, token string, body []byte) <-chan reply {
	ch := make(chan reply, 1)
	go func() { ch <- do(ts, method, path, token, body) }()
	return ch
}

// wantOK fails t unless r is a 2xx response.
func wantOK(t *testing.T, what string, r reply) {
	t.Helper()
	if r.err != nil || r.status/100 != 2 {
		t.Fatalf("%s: status %d, err %v; want 2xx", what, r.status, r.err)
	}
}

// wantShed fails t unless r is a 503 whose Retry-After is an integer
// number of seconds >= 1.
func wantShed(t *testing.T, what string, r reply) {
	t.Helper()
	if r.err != nil || r.status != http.StatusServiceUnavailable {
		t.Fatalf("%s: status %d, err %v; want 503", what, r.status, r.err)
	}
	if secs, err := strconv.Atoi(r.retryAfter); err != nil || secs < 1 {
		t.Fatalf("%s: Retry-After = %q, want integer seconds >= 1", what, r.retryAfter)
	}
}

// wantCounters fails t unless one snapshot holds every value in want.
func wantCounters(t *testing.T, s *Server, want map[string]int64) {
	t.Helper()
	got := map[string]int64{}
	for _, c := range s.Snapshot().Counters {
		got[c.Name] = c.Value
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %d, want %d", name, got[name], v)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

// waitCounter waits until counter name reads want: for a request to reach
// the admission queue, or for the deferred slot release that runs when a
// handler returns.
func waitCounter(t *testing.T, s *Server, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(queuePatience)
	for snapValue(t, s, name) != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", name, snapValue(t, s, name), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// dialRaw opens a bare TCP connection to ts, for clients that misbehave
// below the HTTP client's level.
func dialRaw(t *testing.T, ts *httptest.Server) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestAdmissionShedsWithRetryAfter fills a 2-slot gateway's slots and its
// 2-seat queue, and checks that the next 3 arrivals are shed with 503 +
// Retry-After while the 4 held or queued requests all complete once the
// gate opens. Sheds never take a slot: inflight stays at the limit.
func TestAdmissionShedsWithRetryAfter(t *testing.T) {
	var shedSeen atomic.Int64
	srv, ts, g, st := newGatedServer(t, Options{
		Limits: Limits{MaxInFlight: 2, QueueDepth: 2, QueueWait: queuePatience},
		Trace: &obs.ServerTrace{
			Shed: func(client, reason string, ra time.Duration) { shedSeen.Add(1) },
		},
	})
	if err := st.Put("/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("put!"), 1024)
	held := []<-chan reply{
		goDo(ts, http.MethodPut, "/put-0", "", payload),
		goDo(ts, http.MethodPut, "/put-1", "", payload),
	}
	g.wait(t, 2)
	queued := []<-chan reply{
		goDo(ts, http.MethodGet, "/f", "", nil),
		goDo(ts, "PROPFIND", "/", "", nil),
	}
	waitCounter(t, srv, "admission_queue", 2)

	for i := 0; i < 3; i++ {
		wantShed(t, fmt.Sprintf("arrival %d past the queue", i), do(ts, http.MethodGet, "/f", "", nil))
	}
	wantCounters(t, srv, map[string]int64{
		"admitted_total": 2, "admission_queue": 2, "inflight": 2,
		"shed_capacity_total": 3, "shed_total": 3,
	})
	if n := shedSeen.Load(); n != 3 {
		t.Fatalf("Shed trace hook fired %d times, want 3", n)
	}

	g.open()
	for i, ch := range append(held, queued...) {
		wantOK(t, fmt.Sprintf("held or queued request %d", i), <-ch)
	}
	waitCounter(t, srv, "inflight", 0)
	wantCounters(t, srv, map[string]int64{
		"admitted_total": 4, "admitted_queued_total": 2, "admission_queue": 0,
		"shed_total": 3,
	})
	for _, p := range []string{"/put-0", "/put-1"} {
		if data, _, err := st.Get(p); err != nil || !bytes.Equal(data, payload) {
			t.Fatalf("%s stored %d bytes, err %v; want the %d bytes sent", p, len(data), err, len(payload))
		}
	}
}

// TestAdmissionQueueDeadlineSheds holds both slots shut past a short
// QueueWait: each queued request is shed once, for capacity, with
// Retry-After, and the held requests still complete.
func TestAdmissionQueueDeadlineSheds(t *testing.T) {
	srv, ts, g, st := newGatedServer(t, Options{
		Limits: Limits{MaxInFlight: 2, QueueDepth: 2, QueueWait: 20 * time.Millisecond},
	})
	if err := st.Put("/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	held := []<-chan reply{
		goDo(ts, http.MethodGet, "/f", "", nil),
		goDo(ts, http.MethodGet, "/f", "", nil),
	}
	g.wait(t, 2)
	queued := []<-chan reply{
		goDo(ts, http.MethodGet, "/f", "", nil),
		goDo(ts, http.MethodGet, "/f", "", nil),
	}
	for i, ch := range queued {
		wantShed(t, fmt.Sprintf("queued request %d", i), <-ch)
	}
	wantCounters(t, srv, map[string]int64{
		"admitted_total": 2, "admitted_queued_total": 0, "admission_queue": 0,
		"inflight": 2, "shed_capacity_total": 2, "shed_total": 2,
	})
	g.open()
	for i, ch := range held {
		wantOK(t, fmt.Sprintf("held request %d", i), <-ch)
	}
	waitCounter(t, srv, "inflight", 0)
}

// TestEveryShedCarriesRetryAfter produces one shed for each reason —
// client concurrency, global capacity, client rate — and checks each 503
// carries Retry-After and shed_total is their sum.
func TestEveryShedCarriesRetryAfter(t *testing.T) {
	srv, ts, g, st := newGatedServer(t, Options{
		Limits: Limits{
			MaxInFlight: 1, QueueDepth: 1, QueueWait: queuePatience,
			PerClientConcurrency: 1, PerClientRate: 0.001, PerClientBurst: 1,
		},
	})
	if err := st.Put("/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	held := goDo(ts, http.MethodGet, "/f", "a", nil)
	g.wait(t, 1)
	// a's second request meets its concurrency cap before its bucket.
	wantShed(t, "client concurrency", do(ts, http.MethodGet, "/f", "a", nil))
	queued := goDo(ts, http.MethodGet, "/f", "b", nil)
	waitCounter(t, srv, "admission_queue", 1)
	// c's only token buys it a place in a full queue; its next request
	// finds the bucket empty.
	wantShed(t, "capacity", do(ts, http.MethodGet, "/f", "c", nil))
	wantShed(t, "client rate", do(ts, http.MethodGet, "/f", "c", nil))
	wantCounters(t, srv, map[string]int64{
		"shed_client_concurrency_total": 1, "shed_capacity_total": 1,
		"shed_client_rate_total": 1, "shed_total": 3, "inflight": 1,
	})
	g.open()
	wantOK(t, "held request", <-held)
	wantOK(t, "queued request", <-queued)
	waitCounter(t, srv, "inflight", 0)
	wantCounters(t, srv, map[string]int64{"admitted_total": 2, "admitted_queued_total": 1})
}

// TestSlowLorisYieldsSlotToQueued is the slow-loris contract: a writer that
// declares a body and sends none of it holds the only slot; a well-behaved
// upload queues behind it. The stall guard cuts the loris, and the queued
// upload gets the slot and commits. The loris is held at authorization,
// behind admission, until the well-behaved upload is queued, so the order
// does not depend on the host's speed.
func TestSlowLorisYieldsSlotToQueued(t *testing.T) {
	var g *gate
	srv, ts, st := newTestServer(t, Options{
		Authorize: func(auth string) bool {
			if auth == "Bearer loris" {
				g.hold()
			}
			return true
		},
		Limits: Limits{
			MaxInFlight: 1, QueueDepth: 1, QueueWait: queuePatience,
			BodyStallTimeout: 50 * time.Millisecond,
		},
	})
	g = newGate(t)
	loris := dialRaw(t, ts)
	fmt.Fprintf(loris, "PUT /loris HTTP/1.1\r\nHost: gw\r\nAuthorization: Bearer loris\r\nContent-Length: %d\r\n\r\n", 64<<10)
	g.wait(t, 1)
	payload := bytes.Repeat([]byte("well"), 1024)
	well := goDo(ts, http.MethodPut, "/well", "well", payload)
	waitCounter(t, srv, "admission_queue", 1)

	g.open()
	if r := <-well; r.err != nil || r.status != http.StatusCreated {
		t.Fatalf("queued upload: status %d, err %v; want 201", r.status, r.err)
	}
	wantCounters(t, srv, map[string]int64{
		"stall_kills_total": 1, "admitted_total": 2, "admitted_queued_total": 1,
		"shed_total": 0,
	})
	if data, _, err := st.Get("/well"); err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("/well stored %d bytes, err %v; want the %d bytes sent", len(data), err, len(payload))
	}
	if _, err := st.Stat("/loris"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("/loris: %v, want ErrNotFound", err)
	}
	waitCounter(t, srv, "inflight", 0)
}

// TestDroppedUploadNeverCommits cuts a whole-body PUT and a ranged chunk
// that completes its object halfway through their declared bodies: neither
// commits, and each frees its slot.
func TestDroppedUploadNeverCommits(t *testing.T) {
	srv, ts, st := newTestServer(t, Options{Limits: Limits{MaxInFlight: 2}})
	heads := map[string]string{
		"/drop-whole":  "",
		"/drop-ranged": "Content-Range: bytes 0-65535/65536\r\n",
	}
	admitted := int64(0)
	for p, extra := range heads {
		c := dialRaw(t, ts)
		fmt.Fprintf(c, "PUT %s HTTP/1.1\r\nHost: gw\r\nContent-Length: %d\r\n%s\r\n", p, 64<<10, extra)
		c.Write(make([]byte, 32<<10))
		c.Close()
		admitted++
		waitCounter(t, srv, "admitted_total", admitted)
		waitCounter(t, srv, "inflight", 0)
		if _, err := st.Stat(p); !errors.Is(err, storage.ErrNotFound) {
			t.Fatalf("%s: %v after a dropped upload, want ErrNotFound", p, err)
		}
	}
	if r := do(ts, http.MethodPut, "/well", "", []byte("well")); r.status != http.StatusCreated {
		t.Fatalf("upload after the drops: status %d, err %v; want 201", r.status, r.err)
	}
}

// TestOversizedBodyRejected declares a body past the 1 GiB cap and sends
// none of it: the gateway answers 413 without reading it and frees the
// only slot for the next client.
func TestOversizedBodyRejected(t *testing.T) {
	srv, ts, st := newTestServer(t, Options{
		Limits: Limits{MaxInFlight: 1, QueueDepth: 1, QueueWait: 20 * time.Millisecond},
	})
	c := dialRaw(t, ts)
	fmt.Fprint(c, "PUT /huge HTTP/1.1\r\nHost: gw\r\nContent-Length: 2147483648\r\n\r\n")
	c.SetReadDeadline(time.Now().Add(queuePatience))
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	waitCounter(t, srv, "inflight", 0)
	if r := do(ts, http.MethodPut, "/well", "", []byte("well")); r.status != http.StatusCreated {
		t.Fatalf("upload after the 413: status %d, err %v; want 201", r.status, r.err)
	}
	wantCounters(t, srv, map[string]int64{"admitted_total": 2, "shed_total": 0})
	if _, err := st.Stat("/huge"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("/huge: %v, want ErrNotFound", err)
	}
}

// TestHeaderStallClosesConn checks BodyStallTimeout also bounds the request
// headers: a client that sends half a request line is disconnected, while
// a keep-alive connection idle for as long still serves its next request.
func TestHeaderStallClosesConn(t *testing.T) {
	st := storage.NewMemStore()
	if err := st.Put("/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{Limits: Limits{BodyStallTimeout: 50 * time.Millisecond}})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { srv.Serve(l); close(served) }()
	t.Cleanup(func() { l.Close(); <-served })
	dial := func() net.Conn {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		c.SetReadDeadline(time.Now().Add(queuePatience))
		return c
	}
	get := func(c net.Conn, br *bufio.Reader) {
		t.Helper()
		fmt.Fprint(c, "GET /f HTTP/1.1\r\nHost: gw\r\n\r\n")
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET status = %d, want 200", resp.StatusCode)
		}
	}

	idle := dial()
	idleR := bufio.NewReader(idle)
	get(idle, idleR)

	stalled := dial()
	fmt.Fprint(stalled, "GET /f HT")
	// net/http answers a request line cut by its deadline with a 400, then
	// closes the connection.
	if b, err := io.ReadAll(stalled); err != nil || (len(b) > 0 && !bytes.HasPrefix(b, []byte("HTTP/1.1 400 "))) {
		t.Fatalf("after half a request line read %q, err %v; want the server to close the connection", b, err)
	}
	// The idle connection has now waited longer than the stall deadline.
	get(idle, idleR)
}

// TestPerClientConcurrencyCap checks one client cannot occupy more than its
// per-client share while another client is still admitted. The hog holds
// its one slot with an upload whose body the test keeps open.
func TestPerClientConcurrencyCap(t *testing.T) {
	srv, ts, st := newTestServer(t, Options{
		Limits: Limits{MaxInFlight: 8, PerClientConcurrency: 1, QueueWait: 10 * time.Millisecond},
	})
	if err := st.Put("/f", []byte("x")); err != nil {
		t.Fatal(err)
	}

	// Hog: one bearer identity parks an upload halfway through its body.
	hog := dialRaw(t, ts)
	fmt.Fprint(hog, "PUT /hog HTTP/1.1\r\nHost: gw\r\nAuthorization: Bearer hog\r\nContent-Length: 2\r\n\r\nx")
	deadline := time.Now().Add(2 * time.Second)
	for srv.adm.inflight.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("hog request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// The hog's second request is shed by its concurrency cap...
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/f", nil)
	req.Header.Set("Authorization", "Bearer hog")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("hog second request status = %d, want 503", resp.StatusCode)
	}

	// ...while a different client sails through.
	req2, _ := http.NewRequest(http.MethodGet, ts.URL+"/f", nil)
	req2.Header.Set("Authorization", "Bearer polite")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("other client status = %d, want 200", resp2.StatusCode)
	}
	if got := snapValue(t, srv, "shed_client_concurrency_total"); got != 1 {
		t.Fatalf("shed_client_concurrency_total = %d, want 1", got)
	}
	hog.Write([]byte("x"))
	hogResp, err := http.ReadResponse(bufio.NewReader(hog), nil)
	if err != nil {
		t.Fatal(err)
	}
	if hogResp.StatusCode != http.StatusCreated {
		t.Fatalf("hog upload status = %d, want 201", hogResp.StatusCode)
	}
}

// TestPerClientRateLimit exhausts one client's token bucket and checks the
// overflow is shed with the rate reason.
func TestPerClientRateLimit(t *testing.T) {
	srv, ts, st := newTestServer(t, Options{
		Limits: Limits{MaxInFlight: 32, PerClientRate: 0.001, PerClientBurst: 2},
	})
	if err := st.Put("/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	codes := []int{}
	for i := 0; i < 4; i++ {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/f", nil)
		req.Header.Set("Authorization", "Bearer bursty")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		codes = append(codes, resp.StatusCode)
	}
	want := []int{200, 200, 503, 503}
	for i := range want {
		if codes[i] != want[i] {
			t.Fatalf("request %d status = %d, want %d (all: %v)", i, codes[i], want[i], codes)
		}
	}
	if got := snapValue(t, srv, "shed_client_rate_total"); got != 2 {
		t.Fatalf("shed_client_rate_total = %d, want 2", got)
	}
}

// TestBodyStallKilled is the slow-loris test: a client that stops sending
// its upload mid-body for longer than BodyStallTimeout is cut off, and the
// stall counter records the kill.
func TestBodyStallKilled(t *testing.T) {
	srv, ts, _ := newTestServer(t, Options{
		Limits: Limits{BodyStallTimeout: 30 * time.Millisecond},
	})

	pr, pw := io.Pipe()
	defer pr.Close()
	resume := make(chan struct{})
	go func() {
		pw.Write([]byte("begin-"))
		<-resume // held until the kill is recorded
		pw.Write([]byte("end"))
		pw.Close()
	}()
	defer close(resume)
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/f", pr)
	req.ContentLength = int64(len("begin-end"))
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusCreated {
			t.Fatal("stalled upload committed")
		}
	}
	waitCounter(t, srv, "stall_kills_total", 1)
}

// TestHealthyUploadUnaffectedByStallGuard checks a normal-speed upload
// commits under an armed BodyStallTimeout.
func TestHealthyUploadUnaffectedByStallGuard(t *testing.T) {
	_, ts, st := newTestServer(t, Options{
		Limits: Limits{BodyStallTimeout: 200 * time.Millisecond},
	})
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/f", strings.NewReader("payload"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d, want 201", resp.StatusCode)
	}
	if data, _, err := st.Get("/f"); err != nil || string(data) != "payload" {
		t.Fatalf("stored = %q, %v", data, err)
	}
}

// TestPartialUploadTTLReaped is the leak regression test: an assembly whose
// commit chunk never arrives must be reaped by the janitor with no further
// requests, returning the partial-uploads gauge to zero.
func TestPartialUploadTTLReaped(t *testing.T) {
	var reaped atomic.Int64
	srv, ts, _ := newTestServer(t, Options{
		Limits: Limits{PartialTTL: 40 * time.Millisecond},
		Trace: &obs.ServerTrace{
			PartialReaped: func(path string, age time.Duration) { reaped.Add(1) },
		},
	})

	// First chunk of a two-chunk upload; the second never comes.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/f", strings.NewReader("aaaa"))
	req.Header.Set("Content-Range", "bytes 0-3/8")
	req.Header.Set("X-Upload-Id", "crashed")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("chunk status = %d, want 202", resp.StatusCode)
	}
	if got := snapValue(t, srv, "partial_uploads"); got != 1 {
		t.Fatalf("partial_uploads = %d after chunk, want 1", got)
	}

	// No further requests: the janitor alone must reclaim the assembly.
	deadline := time.Now().Add(2 * time.Second)
	for snapValue(t, srv, "partial_uploads") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("partial_uploads stuck at %d after TTL", snapValue(t, srv, "partial_uploads"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if reaped.Load() == 0 {
		t.Fatal("PartialReaped trace hook never fired")
	}
	if got := snapValue(t, srv, "partial_reaped_total"); got != 1 {
		t.Fatalf("partial_reaped_total = %d, want 1", got)
	}
}

// TestLocalCopyAndMove covers same-server COPY and MOVE through the store's
// two-key namespace operations.
func TestLocalCopyAndMove(t *testing.T) {
	_, ts, st := newTestServer(t, Options{})
	if err := st.Put("/a", []byte("data")); err != nil {
		t.Fatal(err)
	}

	do := func(method, path, dest string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(method, ts.URL+path, nil)
		req.Header.Set("Destination", dest)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	// Path-only Destination.
	if resp := do("COPY", "/a", "/copied"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("COPY status = %d, want 201", resp.StatusCode)
	}
	if data, _, err := st.Get("/copied"); err != nil || string(data) != "data" {
		t.Fatalf("copied = %q, %v", data, err)
	}
	if _, err := st.Stat("/a"); err != nil {
		t.Fatalf("COPY removed the source: %v", err)
	}

	// Absolute-URL Destination on this same server.
	if resp := do("MOVE", "/a", ts.URL+"/moved"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("MOVE status = %d, want 201", resp.StatusCode)
	}
	if _, err := st.Stat("/a"); err == nil {
		t.Fatal("MOVE left the source behind")
	}
	if data, _, err := st.Get("/moved"); err != nil || string(data) != "data" {
		t.Fatalf("moved = %q, %v", data, err)
	}

	// Cross-server MOVE is refused.
	if resp := do("MOVE", "/moved", "http://elsewhere:80/x"); resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("cross-server MOVE status = %d, want 501", resp.StatusCode)
	}
}

// ctxProbeCopier records whether the context handed to downstream storage
// work carried a deadline.
type ctxProbeCopier struct {
	hasDeadline bool
	remaining   time.Duration
}

func (c *ctxProbeCopier) Put(ctx context.Context, host, path string, data []byte) error {
	var dl time.Time
	dl, c.hasDeadline = ctx.Deadline()
	if c.hasDeadline {
		c.remaining = time.Until(dl)
	}
	return nil
}

// TestRequestBudgetCancelsContext checks the whole-request budget reaches
// downstream storage work (here a TPC push) through the request context, so
// an abandoned or overlong request cancels its server-side work.
func TestRequestBudgetCancelsContext(t *testing.T) {
	cp := &ctxProbeCopier{}
	_, ts, st := newTestServer(t, Options{
		Copier: cp,
		Limits: Limits{RequestBudget: 500 * time.Millisecond},
	})
	if err := st.Put("/a", []byte("data")); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("COPY", ts.URL+"/a", nil)
	req.Header.Set("Destination", "http://elsewhere:80/x")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("COPY status = %d, want 201", resp.StatusCode)
	}
	if !cp.hasDeadline {
		t.Fatal("downstream context carried no deadline under RequestBudget")
	}
	if cp.remaining > 510*time.Millisecond {
		t.Fatalf("context deadline %v away, want <= the budget", cp.remaining)
	}
}
