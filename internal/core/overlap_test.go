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
	"godavix/internal/obs"
	"godavix/internal/storage"
)

// overlapPatience is how long an overlapGate waits for its set of requests
// to fill before it gives up, lets them through and reports the shortfall.
const overlapPatience = 5 * time.Second

// peakCounter records the most pieces of a fan-out that were started and
// not yet done at once.
type peakCounter struct {
	mu        sync.Mutex
	now, peak int
}

func (p *peakCounter) add(d int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.now += d
	p.peak = max(p.peak, p.now)
}

func (p *peakCounter) max() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}

// overlapGate wraps gateway handlers, one or several. It holds each request
// that match selects until n of them are held at once, then lets them all
// through; later matches pass straight on. Requests that a client sends
// fewer than n at a time can never fill it, so the count it held is an
// exact measure of the client's concurrency, independent of how fast the
// host runs. inside records the most matched requests that were ever
// inside the gateways at once.
type overlapGate struct {
	n      int
	match  func(*http.Request) bool
	inside peakCounter

	mu      sync.Mutex
	arrived int
	held    int
	open    chan struct{}
}

func newOverlapGate(n int, match func(*http.Request) bool) *overlapGate {
	return &overlapGate{n: n, match: match, open: make(chan struct{})}
}

// wrap returns next behind the gate.
func (g *overlapGate) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !g.match(r) {
			next.ServeHTTP(w, r)
			return
		}
		g.inside.add(1)
		defer g.inside.add(-1)
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
		next.ServeHTTP(w, r)
	})
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
		if wrap != nil {
			return wrap(g.wrap(srv))
		}
		return g.wrap(srv)
	})
}

// TestRequestsOverlapAtGateway pins each parallel path's concurrency by
// count, not by wall-clock: the gateway holds the requests under test until
// the expected number are in flight at once, which only a client that
// really overlaps them can reach.
func TestRequestsOverlapAtGateway(t *testing.T) {
	ctx := context.Background()

	t.Run("ReadVec sends every batch at once", func(t *testing.T) {
		const batches = 8
		e := newEnv(t, Options{Strategy: StrategyNone})
		g := newOverlapGate(batches, func(r *http.Request) bool { return r.Method == http.MethodGet })
		e.startGated(t, g, nil)
		blob := uploadBlob(64<<10, 81)
		e.stores[dpm1].Put("/f", blob)

		ranges, dsts := spacedRanges(batches*maxRangesPerRequest, 32, 16)
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

	t.Run("Walk lists MaxPerHost siblings at once", func(t *testing.T) {
		const par, siblings = 4, 8
		e := newEnv(t, Options{Strategy: StrategyNone, MaxPerHost: par})
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
		const chunks, chunk = streamWidth, 128 << 10
		e := newEnv(t, Options{Strategy: StrategyNone, ChunkSize: chunk})
		// The probe is the first PUT and goes alone; the chunks follow it.
		g := newOverlapGate(chunks, func(r *http.Request) bool {
			return r.Method == http.MethodPut && !strings.HasPrefix(r.Header.Get("Content-Range"), "bytes 0-")
		})
		e.startGated(t, g, nil)
		// uploadProbeLen of the object goes first; the rest is 4 chunks.
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

// TestFanOutWidthIsConnectionBudget pins the one width rule: a fan-out
// runs min(pieces, its default, hosts × MaxPerHost) workers. Each row holds
// the fan-out's requests at the gateways until want are in flight at once,
// and checks that no more ever were. It also counts the pieces the client
// started and has not finished, from trace hooks that fire before the pool
// is asked for a connection: a chunk's ChunkStart/ChunkDone, or the
// OpStart/OpDone of each vectored batch and each PROPFIND. A fan-out wider
// than the budget shows there even when its extra workers only queue for a
// connection and the gateways never see them.
func TestFanOutWidthIsConnectionBudget(t *testing.T) {
	const chunk = 128 << 10
	isChunkGet := func(r *http.Request) bool { return r.Method == http.MethodGet && r.Header.Get("Range") != "" }
	rows := []struct {
		name       string
		maxPerHost int
		want       int
		piece      string // the op each piece runs, or "chunk"
		match      func(*http.Request) bool
		run        func(t *testing.T, opts Options, g *overlapGate)
	}{
		{"ReadVec of 3 batches", 2, 2, specVector.op, isChunkGet, runReadVec3},
		{"ReadVec of 3 batches", 0, 3, specVector.op, isChunkGet, runReadVec3},
		{"Walk", 1, 1, specPropfind.op,
			func(r *http.Request) bool { return r.Method == "PROPFIND" },
			func(t *testing.T, opts Options, g *overlapGate) {
				e := newEnv(t, opts)
				e.startGated(t, g, nil)
				st := e.stores[dpm1]
				st.Mkdir("/tree")
				for i := range 4 {
					st.Mkdir(fmt.Sprintf("/tree/d%d", i))
					st.Put(fmt.Sprintf("/tree/d%d/f", i), []byte("x"))
				}
				entries := 0
				if err := e.client.Walk(context.Background(), dpm1, "/tree", func(Info) error { entries++; return nil }); err != nil {
					t.Fatal(err)
				}
				if entries != 1+2*4 {
					t.Fatalf("walk emitted %d entries, want %d", entries, 1+2*4)
				}
			}},
		{"UploadMultiStream after its probe", 2, 2, "chunk",
			func(r *http.Request) bool {
				return r.Method == http.MethodPut && !strings.HasPrefix(r.Header.Get("Content-Range"), "bytes 0-")
			},
			func(t *testing.T, opts Options, g *overlapGate) {
				opts.ChunkSize = chunk
				e := newEnv(t, opts)
				e.startGated(t, g, nil)
				blob := uploadBlob(4*chunk, 83)
				if err := e.client.UploadMultiStream(context.Background(), dpm1, "/up", bytes.NewReader(blob), int64(len(blob))); err != nil {
					t.Fatal(err)
				}
				if got, _, err := e.stores[dpm1].Get("/up"); err != nil || !bytes.Equal(got, blob) {
					t.Fatalf("stored %d bytes err=%v", len(got), err)
				}
			}},
		{"DownloadMultiStreamTo over 2 hosts", 1, 2, "chunk", isChunkGet, runDownload2},
		{"DownloadMultiStreamTo over 2 hosts", 0, 4, "chunk", isChunkGet, runDownload2},
	}
	for _, row := range rows {
		t.Run(fmt.Sprintf("%s/MaxPerHost_%d", row.name, row.maxPerHost), func(t *testing.T) {
			var started peakCounter
			opts := Options{Strategy: StrategyNone, MaxPerHost: row.maxPerHost, HedgeDelay: -1, Trace: &obs.ClientTrace{
				OpStart: func(op, _, _ string) {
					if op == row.piece {
						started.add(1)
					}
				},
				OpDone: func(op, _, _ string, _ time.Duration, _ error) {
					if op == row.piece {
						started.add(-1)
					}
				},
				ChunkStart: func(obs.Direction, string, int, int64, int64) {
					if row.piece == "chunk" {
						started.add(1)
					}
				},
				ChunkDone: func(obs.Direction, string, int, int64, int64, error) {
					if row.piece == "chunk" {
						started.add(-1)
					}
				},
			}}
			g := newOverlapGate(row.want, row.match)
			row.run(t, opts, g)
			g.check(t)
			if peak := g.inside.max(); peak != row.want {
				t.Errorf("%d requests were inside the gateways at once, want %d", peak, row.want)
			}
			if peak := started.max(); peak != row.want {
				t.Errorf("%d pieces were started and not done at once, want %d", peak, row.want)
			}
		})
	}
}

// runReadVec3 reads 2×256+1 spaced ranges from dpm1: three multi-range
// batches.
func runReadVec3(t *testing.T, opts Options, g *overlapGate) {
	e := newEnv(t, opts)
	e.startGated(t, g, nil)
	blob := uploadBlob(64<<10, 84)
	e.stores[dpm1].Put("/f", blob)
	ranges, dsts := spacedRanges(2*maxRangesPerRequest+1, 64, 16)
	if err := e.client.ReadVec(context.Background(), dpm1, "/f", ranges, dsts); err != nil {
		t.Fatal(err)
	}
	for i, r := range ranges {
		if !bytes.Equal(dsts[i], blob[r.Off:r.End()]) {
			t.Fatalf("range %d mismatch", i)
		}
	}
}

// runDownload2 downloads eight chunks from a Metalink ring of two replica
// hosts, both behind g.
func runDownload2(t *testing.T, opts Options, g *overlapGate) {
	const chunk = 16 << 10
	opts.Strategy, opts.MetalinkHost, opts.ChunkSize = StrategyFailover, "fed:80", chunk
	e := newEnv(t, opts)
	blob := uploadBlob(8*chunk, 85)
	for _, r := range []string{dpm1, "dpm2:80"} {
		e.startServerHandler(t, r, httpserv.Options{}, func(srv *httpserv.Server, _ *storage.MemStore) http.Handler {
			return g.wrap(srv)
		})
		e.stores[r].Put("/f", blob)
	}
	e.startServer(t, "fed:80", httpserv.Options{Metalinks: mlFor("http://dpm1:80/f", "http://dpm2:80/f")})
	w := &bufWriterAt{b: make([]byte, len(blob))}
	if _, err := e.client.DownloadMultiStreamTo(context.Background(), dpm1, "/f", w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.b, blob) {
		t.Fatal("downloaded bytes differ")
	}
}
