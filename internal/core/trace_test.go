package core

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"godavix/internal/httpserv"
	"godavix/internal/obs"
)

// eventLog records trace callbacks as strings, safely across the
// concurrent chunk workers.
type eventLog struct {
	mu     sync.Mutex
	events []string
}

func (l *eventLog) add(s string) {
	l.mu.Lock()
	l.events = append(l.events, s)
	l.mu.Unlock()
}

func (l *eventLog) count(prefix string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.events {
		if strings.HasPrefix(e, prefix) {
			n++
		}
	}
	return n
}

// TestTraceEventsThroughRedirect: a GET bounced by a head node must emit
// the full event sequence — op start, a request and conn-acquired per hop,
// the redirect with its Location, and an op done carrying the result.
func TestTraceEventsThroughRedirect(t *testing.T) {
	log := &eventLog{}
	var opErr error
	trace := &obs.ClientTrace{
		OpStart: func(op, host, path string) { log.add("start " + op + " " + host + path) },
		OpDone: func(op, host, path string, d time.Duration, err error) {
			opErr = err
			log.add("done " + op + " " + host + path)
		},
		Request:      func(method, host, path string) { log.add("req " + method + " " + host + path) },
		ConnAcquired: func(host string, reused bool) { log.add("conn " + host) },
		Redirect:     func(op, fromHost, location string) { log.add("redirect " + op + " " + fromHost + " -> " + location) },
	}
	e := newEnv(t, Options{Strategy: StrategyNone, Trace: trace})
	e.startServer(t, "disk1:80", httpserv.Options{})
	startHeadNode(t, e, "head:80", "disk1:80")
	e.stores["disk1:80"].Put("/pool/f", []byte("data"))

	got, err := e.client.Get(context.Background(), "head:80", "/pool/f")
	if err != nil || string(got) != "data" {
		t.Fatalf("get: %q err=%v", got, err)
	}
	for want, n := range map[string]int{
		"start GET head:80/pool/f":                       1,
		"done GET head:80/pool/f":                        1,
		"redirect GET head:80 -> http://disk1:80/pool/f": 1,
	} {
		if c := log.count(want); c != n {
			t.Errorf("event %q seen %d times, want %d\nevents: %v", want, c, n, log.events)
		}
	}
	// One request and one connection per hop.
	if c := log.count("req GET "); c != 2 {
		t.Errorf("request events = %d, want 2 (one per hop)\nevents: %v", c, log.events)
	}
	if c := log.count("conn "); c != 2 {
		t.Errorf("conn-acquired events = %d, want 2\nevents: %v", c, log.events)
	}
	if opErr != nil {
		t.Errorf("OpDone err = %v, want nil", opErr)
	}
}

// TestTraceUploadChunkBytesSumToSize: the ChunkDone events of a
// multi-stream transfer must tile the object exactly — offsets contiguous
// from zero, lengths summing to the (deliberately unaligned) size — in each
// direction: an upload's chunk PUTs and a download's chunk GETs.
func TestTraceUploadChunkBytesSumToSize(t *testing.T) {
	const size = (256 << 10) + 12345
	blob := make([]byte, size)
	rand.New(rand.NewSource(7)).Read(blob)
	ctx := context.Background()
	for _, c := range []struct {
		dir obs.Direction
		run func(c *Client) error
	}{
		{obs.Up, func(c *Client) error {
			return c.UploadMultiStream(ctx, dpm1, "/store/up", bytes.NewReader(blob), size)
		}},
		{obs.Down, func(c *Client) error {
			w := &bufWriterAt{b: make([]byte, size)}
			if _, err := c.DownloadMultiStreamTo(ctx, dpm1, "/store/big", w); err != nil {
				return err
			}
			if !bytes.Equal(w.b, blob) {
				return errors.New("downloaded bytes differ")
			}
			return nil
		}},
	} {
		t.Run(string(c.dir), func(t *testing.T) {
			type span struct{ off, ln int64 }
			var mu sync.Mutex
			var spans []span
			var starts atomic.Int64
			trace := &obs.ClientTrace{
				ChunkStart: func(dir obs.Direction, path string, idx int, off, ln int64) {
					if dir == c.dir {
						starts.Add(1)
					}
				},
				ChunkDone: func(dir obs.Direction, path string, idx int, off, ln int64, err error) {
					if dir != c.dir {
						return
					}
					if err != nil {
						t.Errorf("chunk %d failed: %v", idx, err)
						return
					}
					mu.Lock()
					spans = append(spans, span{off, ln})
					mu.Unlock()
				},
			}
			e := newEnv(t, Options{Trace: trace, ChunkSize: 32 << 10, UploadParallelism: 4, MaxStreams: 4})
			e.startServer(t, dpm1, httpserv.Options{})
			e.stores[dpm1].Put("/store/big", blob)
			if err := c.run(e.client); err != nil {
				t.Fatal(err)
			}

			mu.Lock()
			defer mu.Unlock()
			sort.Slice(spans, func(i, j int) bool { return spans[i].off < spans[j].off })
			var next, total int64
			for _, s := range spans {
				if s.off != next {
					t.Fatalf("chunk at offset %d, want %d (gap or overlap)\nspans: %v", s.off, next, spans)
				}
				next = s.off + s.ln
				total += s.ln
			}
			if total != size {
				t.Fatalf("chunk bytes sum to %d, want %d", total, size)
			}
			if int64(len(spans)) != starts.Load() {
				t.Fatalf("chunk starts = %d, dones = %d", starts.Load(), len(spans))
			}
		})
	}
}

// TestBytesUpCountedOnceThroughRedirect: a PUT whose body crosses the wire
// twice (full write to the head node, 302, full write to the disk node)
// must charge BytesUp for the settled exchange only — the abandoned hop's
// bytes are dropped, not double-counted.
func TestBytesUpCountedOnceThroughRedirect(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone})
	e.startServer(t, "disk1:80", httpserv.Options{})
	startHeadNode(t, e, "head:80", "disk1:80")

	const size = 256 << 10
	blob := make([]byte, size)
	if err := e.client.Put(context.Background(), "head:80", "/pool/big", blob); err != nil {
		t.Fatal(err)
	}
	up := e.client.Metrics().BytesUp
	if up < size {
		t.Fatalf("BytesUp = %d, want >= body size %d", up, size)
	}
	// Headers are a few hundred bytes; anything near 2x the body means the
	// abandoned head-node hop was counted too.
	if up > size+size/2 {
		t.Fatalf("BytesUp = %d for a %d-byte body: redirect hop double-counted", up, size)
	}
}

// TestTraceConcurrentWithSnapshots races everything satellite-3 worries
// about: trace callbacks firing from concurrent chunk workers while other
// goroutines snapshot the metrics histograms mid-write. Run with -race.
func TestTraceConcurrentWithSnapshots(t *testing.T) {
	var events atomic.Int64
	bump := func() { events.Add(1) }
	trace := &obs.ClientTrace{
		OpStart:      func(string, string, string) { bump() },
		OpDone:       func(string, string, string, time.Duration, error) { bump() },
		Request:      func(string, string, string) { bump() },
		ConnAcquired: func(string, bool) { bump() },
		ChunkStart:   func(obs.Direction, string, int, int64, int64) { bump() },
		ChunkDone:    func(obs.Direction, string, int, int64, int64, error) { bump() },
	}
	e := newEnv(t, Options{Trace: trace, ChunkSize: 16 << 10, UploadParallelism: 4})
	e.startServer(t, dpm1, httpserv.Options{})
	ctx := context.Background()

	const size = 128 << 10
	blob := make([]byte, size)
	rand.New(rand.NewSource(8)).Read(blob)

	done := make(chan struct{})
	var snapErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			s := e.client.Snapshot()
			if s.Engine.Requests < 0 {
				snapErr = context.Canceled // impossible; keeps the read observable
				return
			}
		}
	}()
	for i := 0; i < 4; i++ {
		if err := e.client.UploadMultiStream(ctx, dpm1, "/store/r", bytes.NewReader(blob), size); err != nil {
			t.Fatal(err)
		}
		if _, err := e.client.Get(ctx, dpm1, "/store/r"); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	if events.Load() == 0 {
		t.Fatal("no trace events recorded")
	}
}

// TestLoggerRecordsOperations: obs.SlogTrace installed as Options.Trace
// records engine activity as structured slog lines.
func TestLoggerRecordsOperations(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	e := newEnv(t, Options{Trace: obs.SlogTrace(logger)})
	e.startServer(t, dpm1, httpserv.Options{})
	e.stores[dpm1].Put("/store/f", []byte("data"))

	if _, err := e.client.Get(context.Background(), dpm1, "/store/f"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"davix op", "op=GET", "davix request", "davix conn acquired"} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
}

// TestMetricsSnapshotUnderHistogramWrites hammers one op histogram from
// many goroutines while snapshotting: counts must be monotonic and the
// quantiles derived from a coherent bucket view (run with -race).
func TestMetricsSnapshotUnderHistogramWrites(t *testing.T) {
	m := &metrics{}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.observe("GET", time.Duration(rng.Intn(1_000_000))*time.Microsecond)
			}
		}(int64(i))
	}
	var last int64
	for i := 0; i < 100; i++ {
		s := m.snapshot()
		if got := s.Ops["GET"].Count; got < last {
			t.Fatalf("op count went backwards: %d -> %d", last, got)
		} else {
			last = got
		}
	}
	close(stop)
	wg.Wait()
}
