package core

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"godavix/internal/httpserv"
	"godavix/internal/rangev"
	"godavix/internal/storage"
)

// overlapPatience is how long an overlapGate waits for its set of requests
// to fill before it gives up, lets them through and reports the shortfall.
const overlapPatience = 5 * time.Second

// overlapGate wraps a gateway handler. It holds each request that match
// selects until n of them are held at once, then lets them all through;
// later matches pass straight on. Requests that a client sends fewer than n
// at a time can never fill it, so the count it held is an exact measure of
// the client's concurrency, independent of how fast the host runs.
type overlapGate struct {
	next  http.Handler
	n     int
	match func(*http.Request) bool

	mu      sync.Mutex
	arrived int
	held    int
	open    chan struct{}
}

func newOverlapGate(n int, match func(*http.Request) bool) *overlapGate {
	return &overlapGate{n: n, match: match, open: make(chan struct{})}
}

func (g *overlapGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.match(r) {
		g.mu.Lock()
		g.arrived++
		if g.arrived == g.n {
			g.openLocked()
		}
		g.mu.Unlock()
		select {
		case <-g.open:
		case <-time.After(overlapPatience):
			g.mu.Lock()
			g.openLocked()
			g.mu.Unlock()
		}
	}
	g.next.ServeHTTP(w, r)
}

// openLocked lets every held request through, recording how many there
// were. Until the gate opens, every matched request is held, so that count
// is how many the client had in flight at once.
func (g *overlapGate) openLocked() {
	select {
	case <-g.open:
	default:
		g.held = g.arrived
		close(g.open)
	}
}

// check fails t unless the gate held its n requests at once.
func (g *overlapGate) check(t *testing.T) {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.held != g.n {
		t.Fatalf("%d of %d requests were in flight at once", g.held, g.n)
	}
}

// startGated serves dpm1 with g in front of the gateway, wrapped in wrap
// when it is not nil.
func (e *testEnv) startGated(t *testing.T, g *overlapGate, wrap func(http.Handler) http.Handler) {
	t.Helper()
	e.startServerHandler(t, dpm1, httpserv.Options{}, func(srv *httpserv.Server, _ *storage.MemStore) http.Handler {
		g.next = srv
		if wrap != nil {
			return wrap(g)
		}
		return g
	})
}

// TestRequestsOverlapAtGateway pins each parallel path's concurrency by
// count, not by wall-clock: the gateway holds the requests under test until
// the expected number are in flight at once, which only a client that
// really overlaps them can reach.
func TestRequestsOverlapAtGateway(t *testing.T) {
	ctx := context.Background()

	t.Run("ReadVec sends every batch at once", func(t *testing.T) {
		const batches, perBatch = 8, 4
		e := newEnv(t, Options{Strategy: StrategyNone, MaxRangesPerRequest: perBatch, VectorParallelism: 0})
		g := newOverlapGate(batches, func(r *http.Request) bool { return r.Method == http.MethodGet })
		e.startGated(t, g, nil)
		blob := uploadBlob(64<<10, 81)
		e.stores[dpm1].Put("/f", blob)

		ranges := make([]rangev.Range, batches*perBatch)
		dsts := make([][]byte, len(ranges))
		for i := range ranges {
			ranges[i] = rangev.Range{Off: int64(i) * 2048, Len: 16}
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
		g.check(t)
	})

	t.Run("Walk lists WalkParallelism siblings at once", func(t *testing.T) {
		const par, siblings = 4, 8
		e := newEnv(t, Options{Strategy: StrategyNone, WalkParallelism: par})
		g := newOverlapGate(par, func(r *http.Request) bool {
			return r.Method == "PROPFIND" && strings.HasPrefix(r.URL.Path, "/tree/")
		})
		e.startGated(t, g, nil)
		st := e.stores[dpm1]
		st.Mkdir("/tree")
		for i := 0; i < siblings; i++ {
			st.Mkdir(fmt.Sprintf("/tree/d%d", i))
			st.Put(fmt.Sprintf("/tree/d%d/f", i), []byte("x"))
		}
		entries := 0
		if err := e.client.Walk(ctx, dpm1, "/tree", func(Info) error { entries++; return nil }); err != nil {
			t.Fatal(err)
		}
		if want := 1 + 2*siblings; entries != want {
			t.Fatalf("walk emitted %d entries, want %d", entries, want)
		}
		g.check(t)
	})

	t.Run("UploadMultiStream sends every chunk at once after the probe", func(t *testing.T) {
		const chunks, chunk = 16, 128 << 10
		e := newEnv(t, Options{Strategy: StrategyNone, ChunkSize: chunk, UploadParallelism: chunks})
		// The probe is the first PUT and goes alone; the chunks follow it.
		g := newOverlapGate(chunks, func(r *http.Request) bool {
			return r.Method == http.MethodPut && !strings.HasPrefix(r.Header.Get("Content-Range"), "bytes 0-")
		})
		e.startGated(t, g, nil)
		// uploadProbeLen of the object goes first; the rest is 16 chunks.
		blob := uploadBlob(chunks*chunk, 82)
		if err := e.client.UploadMultiStream(ctx, dpm1, "/up", bytes.NewReader(blob), int64(len(blob))); err != nil {
			t.Fatal(err)
		}
		if got, _, err := e.stores[dpm1].Get("/up"); err != nil || !bytes.Equal(got, blob) {
			t.Fatalf("stored %d bytes err=%v", len(got), err)
		}
		g.check(t)
	})

	t.Run("fast GETs are answered while a slow one is held", func(t *testing.T) {
		const fast = 8
		e := newEnv(t, Options{Strategy: StrategyNone})
		g := newOverlapGate(fast, func(r *http.Request) bool { return r.URL.Path != "/slow" })
		slowHeld, release := make(chan struct{}), make(chan struct{})
		e.startGated(t, g, func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/slow" {
					close(slowHeld)
					select {
					case <-release:
					case <-time.After(overlapPatience):
					}
				}
				next.ServeHTTP(w, r)
			})
		})
		st := e.stores[dpm1]
		st.Put("/slow", []byte("slow"))
		for i := 0; i < fast; i++ {
			st.Put(fmt.Sprintf("/obj%d", i), []byte("fast"))
		}

		slowErr := make(chan error, 1)
		go func() {
			_, err := e.client.Get(ctx, dpm1, "/slow")
			slowErr <- err
		}()
		<-slowHeld
		var wg sync.WaitGroup
		for i := 0; i < fast; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := e.client.Get(ctx, dpm1, fmt.Sprintf("/obj%d", i)); err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
		close(release)
		if err := <-slowErr; err != nil {
			t.Fatal(err)
		}
		g.check(t)
		if dials := e.net.Dials(); dials != fast+1 {
			t.Fatalf("dials = %d, want %d: one per fast GET and one under the held slow one", dials, fast+1)
		}
	})
}
