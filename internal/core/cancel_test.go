package core

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"godavix/internal/faults"
	"godavix/internal/httpserv"
	"godavix/internal/metalink"
	"godavix/internal/netsim"
	"godavix/internal/pool"
	"godavix/internal/rangev"
	"godavix/internal/storage"
)

// midBodyHold cuts every response that match selects mid-body: the head
// and the first half of the body go out, and the handler then holds until
// release is closed or the client goes. Once the client connection has
// taken in all of it and is blocked reading for more, the handler counts
// it in stalled.
type midBodyHold struct {
	net     *netsim.Network
	next    http.Handler
	match   func(*http.Request) bool
	release chan struct{}
	stalled atomic.Int32

	mu    sync.Mutex
	conns map[string]*stallConn // client connections by local address
}

func newMidBodyHold(n *netsim.Network, match func(*http.Request) bool) *midBodyHold {
	return &midBodyHold{net: n, match: match, release: make(chan struct{}), conns: map[string]*stallConn{}}
}

func (h *midBodyHold) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.match(r) {
		h.next.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	h.next.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(rec.Code)
	w.Write(body[:len(body)/2])
	http.NewResponseController(w).Flush()
	h.mu.Lock()
	c := h.conns[r.RemoteAddr]
	h.mu.Unlock()
	for {
		select {
		case <-h.release:
			return
		case <-r.Context().Done():
			return
		case <-time.After(time.Millisecond):
		}
		if c.blocked() {
			h.stalled.Add(1)
			break
		}
	}
	select {
	case <-h.release:
	case <-r.Context().Done():
	}
}

// wrap installs h as a gateway's handler (startServerHandler's wrap).
func (h *midBodyHold) wrap(srv *httpserv.Server, _ *storage.MemStore) http.Handler {
	h.next = srv
	return h
}

// dialer dials h's network, watching each connection's reads.
func (h *midBodyHold) dialer() pool.Dialer {
	return pool.DialerFunc(func(ctx context.Context, addr string) (net.Conn, error) {
		nc, err := h.net.DialContext(ctx, addr)
		if err != nil {
			return nil, err
		}
		c := &stallConn{Conn: nc.(*netsim.Conn)}
		h.mu.Lock()
		h.conns[c.LocalAddr().String()] = c
		h.mu.Unlock()
		return c, nil
	})
}

// awaitStalls waits until n client connections are blocked in held bodies.
func (h *midBodyHold) awaitStalls(t *testing.T, n int32) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); h.stalled.Load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d held bodies reached a blocked read", h.stalled.Load(), n)
		}
	}
}

// stallConn tells whether its client is blocked in a read.
type stallConn struct {
	*netsim.Conn
	reads atomic.Int64 // reads started
	in    atomic.Int64 // the number of the read in progress, 0 between reads
}

func (c *stallConn) Read(p []byte) (int, error) {
	c.in.Store(c.reads.Add(1))
	defer c.in.Store(0)
	return c.Conn.Read(p)
}

// blocked reports whether one read has waited, with nothing left to read,
// for a millisecond.
func (c *stallConn) blocked() bool {
	in := c.in.Load()
	if in == 0 || c.Buffered() > 0 {
		return false
	}
	time.Sleep(time.Millisecond)
	return c.in.Load() == in && c.Buffered() == 0
}

// holdEnv is newEnv with h's dialer and dpm1 served through h.
func holdEnv(t *testing.T, opts Options, match func(*http.Request) bool) (*testEnv, *midBodyHold) {
	t.Helper()
	n := netsim.New(netsim.Ideal())
	h := newMidBodyHold(n, match)
	t.Cleanup(func() { close(h.release) })
	opts.Dialer = h.dialer()
	c, err := NewClient(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	e := &testEnv{net: n, client: c, stores: map[string]*storage.MemStore{},
		srvs: map[string]*httpserv.Server{}, faults: map[string]*faults.Layer{}}
	e.startServerHandler(t, dpm1, httpserv.Options{}, h.wrap)
	return e, h
}

// cancelBlob is an object of six 16 KiB chunks, larger than the ends a
// File keeps.
var cancelBlob = uploadBlob(6*cancelChunk, 53)

const cancelChunk = 16 << 10

// TestCancelReachesEveryBodyRead: a cancel reaches a call blocked reading
// a response body, whichever entry point sent the request. Each call's
// body stops halfway and the server holds the rest; once the client is
// blocked on it, the call's ctx is cancelled. The call must return
// context.Canceled within 2 s and leave no goroutine of the package's own
// code behind.
func TestCancelReachesEveryBodyRead(t *testing.T) {
	isGet := func(r *http.Request) bool { return r.Method == http.MethodGet }
	isPropfind := func(r *http.Request) bool { return r.Method == "PROPFIND" }
	// A File's reads outside its ends are single-range GETs; Open's GET
	// of both ends is two ranges.
	isSingleGet := func(r *http.Request) bool {
		return isGet(r) && !strings.Contains(r.Header.Get("Range"), ",")
	}
	for _, row := range []struct {
		name  string
		match func(*http.Request) bool
		run   func(ctx context.Context, c *Client) error
	}{
		{"Get", isGet, func(ctx context.Context, c *Client) error {
			_, err := c.Get(ctx, dpm1, "/d/f")
			return err
		}},
		{"GetRange", isGet, func(ctx context.Context, c *Client) error {
			_, err := c.GetRange(ctx, dpm1, "/d/f", 1000, 20000)
			return err
		}},
		{"ReadVec", isGet, func(ctx context.Context, c *Client) error {
			ranges := []rangev.Range{{Off: 100, Len: 9000}, {Off: 30000, Len: 9000}}
			return c.ReadVec(ctx, dpm1, "/d/f", ranges, [][]byte{make([]byte, 9000), make([]byte, 9000)})
		}},
		{"List", isPropfind, func(ctx context.Context, c *Client) error {
			_, err := c.List(ctx, dpm1, "/d")
			return err
		}},
		{"Walk", isPropfind, func(ctx context.Context, c *Client) error {
			return c.Walk(ctx, dpm1, "/d", func(Info) error { return nil })
		}},
		{"File.ReadAt", isSingleGet, func(ctx context.Context, c *Client) error {
			f, err := c.Open(ctx, dpm1, "/d/f")
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = f.ReadAt(make([]byte, 8<<10), 20<<10)
			return err
		}},
		{"DownloadMultiStreamTo", isGet, func(ctx context.Context, c *Client) error {
			_, err := c.DownloadMultiStreamTo(ctx, dpm1, "/d/f", &bufWriterAt{b: make([]byte, len(cancelBlob))})
			return err
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			e, h := holdEnv(t, Options{Strategy: StrategyNone, ChunkSize: cancelChunk}, row.match)
			e.stores[dpm1].Put("/d/f", cancelBlob)
			for i := 0; i < 40; i++ {
				// A listing of a few KiB, so half of it is a body read.
				e.stores[dpm1].Put("/d/entry-"+strconv.Itoa(i), []byte("x"))
			}
			before := coreGoroutines()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- row.run(ctx, e.client) }()
			h.awaitStalls(t, 1)
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("still blocked 2 s after the cancel")
			}
			awaitCoreGoroutinesGone(t, before)
		})
	}
}

// TestCancelChargesNoHost: a cancel is never a host outcome. A 4-stream
// download cancelled while four chunk bodies are half read, and a
// hedged chunk read whose loser is cut mid-body, leave no failure on any
// host's scoreboard entry and trip no breaker; an Open cut while reading
// its ends records no success either.
func TestCancelChargesNoHost(t *testing.T) {
	checkHealthy := func(t *testing.T, c *Client) {
		t.Helper()
		if trips := c.Metrics().BreakerTrips; trips != 0 {
			t.Errorf("BreakerTrips = %d, want 0", trips)
		}
		c.health.mu.RLock()
		defer c.health.mu.RUnlock()
		for host, hh := range c.health.hosts {
			if f, st := hh.fails.Load(), hh.state.Load(); f != 0 || st != hostClosed {
				t.Errorf("%s: %d failures, breaker open %v; want 0 and closed", host, f, st == hostOpen)
			}
		}
	}
	t.Run("4-stream download cancelled mid-body", func(t *testing.T) {
		e, h := holdEnv(t, Options{Strategy: StrategyNone, ChunkSize: cancelChunk},
			func(r *http.Request) bool { return r.Method == http.MethodGet })
		e.stores[dpm1].Put("/f", cancelBlob)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan error, 1)
		go func() {
			_, err := e.client.DownloadMultiStreamTo(ctx, dpm1, "/f", &bufWriterAt{b: make([]byte, len(cancelBlob))})
			done <- err
		}()
		h.awaitStalls(t, 4)
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		checkHealthy(t, e.client)
	})
	t.Run("Open's ends cut mid-body", func(t *testing.T) {
		// Open's one GET asks for both ends; a read the cancel cuts must
		// record nothing, so the failure charged first stays.
		e, h := holdEnv(t, Options{Strategy: StrategyNone},
			func(r *http.Request) bool { return strings.Contains(r.Header.Get("Range"), ",") })
		e.stores[dpm1].Put("/f", cancelBlob)
		e.client.health.fail(dpm1, &e.client.metrics)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan error, 1)
		go func() {
			_, err := e.client.Open(ctx, dpm1, "/f")
			done <- err
		}()
		h.awaitStalls(t, 1)
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if f := e.client.health.get(dpm1).fails.Load(); f != 1 {
			t.Errorf("dpm1:80: %d failures after the cancelled Open, want the 1 charged before it", f)
		}
	})
	t.Run("hedged read's loser cut mid-body", func(t *testing.T) {
		// dpm1 holds every GET mid-body; the hedge to dpm2 wins the
		// object's one chunk and cancels dpm1's leg.
		e, _ := holdEnv(t, Options{MetalinkHost: "fed:80", ChunkSize: int64(len(cancelBlob)), HedgeDelay: 20 * time.Millisecond},
			func(r *http.Request) bool { return r.Method == http.MethodGet })
		e.startServer(t, "dpm2:80", httpserv.Options{})
		ml := &metalink.Metalink{Name: "f", Size: int64(len(cancelBlob)), URLs: []metalink.URL{
			{Loc: "http://dpm1:80/f", Priority: 1}, {Loc: "http://dpm2:80/f", Priority: 2}}}
		e.startServer(t, "fed:80", httpserv.Options{Metalinks: func(string) *metalink.Metalink { return ml }})
		for _, r := range []string{dpm1, "dpm2:80"} {
			e.stores[r].Put("/f", cancelBlob)
		}
		if _, err := e.client.DownloadMultiStreamTo(context.Background(), dpm1, "/f", &bufWriterAt{b: make([]byte, len(cancelBlob))}); err != nil {
			t.Fatal(err)
		}
		if m := e.client.Metrics(); m.HedgeWins != 1 {
			t.Fatalf("HedgeWins = %d, want 1", m.HedgeWins)
		}
		checkHealthy(t, e.client)
	})
}
