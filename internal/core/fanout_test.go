package core

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"godavix/internal/httpserv"
	"godavix/internal/storage"
)

// failGate holds every request match selects, except the n-th to arrive:
// that one answers 503 while the n-1 before it are still held, or, with
// cancel set, cancels the call's context and is held too. Held requests
// wait for release, their own cancel or overlapPatience, whichever comes
// first.
type failGate struct {
	next    http.Handler
	n       int
	match   func(*http.Request) bool
	cancel  context.CancelFunc
	release chan struct{}

	mu      sync.Mutex
	arrived int
}

func (g *failGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !g.match(r) {
		g.next.ServeHTTP(w, r)
		return
	}
	g.mu.Lock()
	g.arrived++
	act := g.arrived == g.n
	g.mu.Unlock()
	if act && g.cancel == nil {
		http.Error(w, "failed at the gate", http.StatusServiceUnavailable)
		return
	}
	if act {
		g.cancel()
	}
	select {
	case <-g.release:
	case <-r.Context().Done():
	case <-time.After(overlapPatience):
	}
	http.Error(w, "held at the gate", http.StatusInternalServerError)
}

// coreFrame matches a stack frame in one of the package's non-test files.
var coreFrame = regexp.MustCompile(`/internal/core/[a-z]+\.go:`)

// coreGoroutines returns the stack of every goroutine that runs, or was
// started by, the package's own code, keyed by goroutine id.
func coreGoroutines() map[string]string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		head, _, _ := strings.Cut(g, "\n")
		if coreFrame.MatchString(g) {
			id, _, _ := strings.Cut(strings.TrimPrefix(head, "goroutine "), " ")
			out[id] = g
		}
	}
	return out
}

// awaitCoreGoroutinesGone fails t unless every goroutine of the package's
// own code that is not in before ends within overlapPatience.
func awaitCoreGoroutinesGone(t *testing.T, before map[string]string) {
	t.Helper()
	for deadline := time.Now().Add(overlapPatience); ; time.Sleep(time.Millisecond) {
		var left []string
		for id, g := range coreGoroutines() {
			if _, ok := before[id]; !ok {
				left = append(left, g)
			}
		}
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the call:\n%s", len(left), strings.Join(left, "\n\n"))
		}
	}
}

// TestFanOutFirstErrorWins pins what every parallel path of the client
// returns when one of its requests fails while its siblings are held at
// the gateway: that request's 503, not the context.Canceled the siblings
// see once it cancels them, and without waiting for them. A cancel of the
// caller's context while work is still queued returns context.Canceled,
// never nil. Either way no goroutine the call started outlives it.
func TestFanOutFirstErrorWins(t *testing.T) {
	const chunk = 16 << 10
	blob := uploadBlob(8*chunk, 91)
	isGet := func(r *http.Request) bool { return r.Method == http.MethodGet }
	entries := []struct {
		name  string
		opts  Options
		match func(*http.Request) bool
		run   func(ctx context.Context, c *Client) error
	}{
		{"ReadVec", Options{MaxPerHost: 2}, isGet,
			func(ctx context.Context, c *Client) error {
				ranges, dsts := spacedRanges(4*maxRangesPerRequest, 128, 64)
				return c.ReadVec(ctx, dpm1, "/f", ranges, dsts)
			}},
		{"DownloadMultiStreamTo", Options{ChunkSize: chunk, MaxPerHost: 2}, isGet,
			func(ctx context.Context, c *Client) error {
				_, err := c.DownloadMultiStreamTo(ctx, dpm1, "/f", &bufWriterAt{b: make([]byte, len(blob))})
				return err
			}},
		{"UploadMultiStream", Options{ChunkSize: chunk, MaxPerHost: 2},
			// The probe goes alone, before the fan-out.
			func(r *http.Request) bool {
				return r.Method == http.MethodPut && !strings.HasPrefix(r.Header.Get("Content-Range"), "bytes 0-")
			},
			func(ctx context.Context, c *Client) error {
				return c.UploadMultiStream(ctx, dpm1, "/up", bytes.NewReader(blob), int64(len(blob)))
			}},
	}
	for _, en := range entries {
		for _, cancelRow := range []bool{false, true} {
			name := en.name + "/503 while a sibling is held"
			if cancelRow {
				name = en.name + "/cancel while work is queued"
			}
			t.Run(name, func(t *testing.T) {
				opts := en.opts
				opts.Strategy = StrategyNone
				e := newEnv(t, opts)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				g := &failGate{n: 2, match: en.match, release: make(chan struct{})}
				defer close(g.release)
				if cancelRow {
					g.cancel = cancel
				}
				e.startServerHandler(t, dpm1, httpserv.Options{}, func(srv *httpserv.Server, _ *storage.MemStore) http.Handler {
					g.next = srv
					return g
				})
				e.stores[dpm1].Put("/f", blob)

				before := coreGoroutines()
				start := time.Now()
				err := en.run(ctx, e.client)
				if took := time.Since(start); took >= overlapPatience {
					t.Errorf("call took %v: it waited for its held requests", took)
				}
				var se *StatusError
				switch {
				case cancelRow && !errors.Is(err, context.Canceled):
					t.Errorf("err = %v, want context.Canceled", err)
				case !cancelRow && (!errors.As(err, &se) || se.Code != http.StatusServiceUnavailable):
					t.Errorf("err = %v, want the 503 StatusError", err)
				case !cancelRow && errors.Is(err, context.Canceled):
					t.Errorf("err = %v wraps context.Canceled", err)
				}
				awaitCoreGoroutinesGone(t, before)
			})
		}
	}
}

// TestFanOutCancelBetweenCalls covers the cancel no call sees: the caller's
// context is cancelled while every call in flight goes on to succeed, so no
// error is recorded and the indices still queued are abandoned. fanOut must
// report the cancel, never nil, at either width.
func TestFanOutCancelBetweenCalls(t *testing.T) {
	for _, par := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var started sync.WaitGroup
		started.Add(par)
		var mu sync.Mutex
		ran := 0
		err := fanOut(ctx, 8, par, func(_ context.Context, i int) error {
			mu.Lock()
			ran++
			mu.Unlock()
			if i < par {
				started.Done()
				started.Wait()
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("par %d: err = %v, want context.Canceled", par, err)
		}
		if ran != par {
			t.Errorf("par %d: %d calls ran, want %d", par, ran, par)
		}
	}
}
