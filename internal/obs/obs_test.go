package obs

import (
	"context"
	"errors"
	"expvar"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestEmitNilSafety: every emit method must be a no-op on a nil trace and
// on a trace with nil hooks — the engine calls them unconditionally.
func TestEmitNilSafety(t *testing.T) {
	for _, tr := range []*ClientTrace{nil, {}} {
		tr.EmitOpStart("GET", "h", "/p")
		tr.EmitOpDone("GET", "h", "/p", time.Millisecond, nil)
		tr.EmitRequest("GET", "h", "/p")
		tr.EmitConnAcquired("h", true)
		tr.EmitRedirect("GET", "h", "http://d/p")
		tr.EmitRetry("GET", "h", 1, errors.New("x"))
		tr.EmitFailover("h", "h2", nil)
		tr.EmitBreakerTrip("h")
		tr.EmitCacheHit("k", 1)
		tr.EmitCacheMiss("k", 2)
		tr.EmitChunkStart(Down, "/p", 0, 0, 10)
		tr.EmitChunkDone(Up, "/p", 0, 0, 10, nil)
	}
}

// recordingHandler captures slog records for assertions.
type recordingHandler struct {
	mu   sync.Mutex
	recs []slog.Record
}

func (h *recordingHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *recordingHandler) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.recs = append(h.recs, r.Clone())
	return nil
}
func (h *recordingHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *recordingHandler) WithGroup(string) slog.Handler      { return h }

func (h *recordingHandler) find(msg string) (slog.Record, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, r := range h.recs {
		if r.Message == msg {
			return r, true
		}
	}
	return slog.Record{}, false
}

// attrs flattens a record's attributes into a map.
func attrs(r slog.Record) map[string]slog.Value {
	m := map[string]slog.Value{}
	r.Attrs(func(a slog.Attr) bool {
		m[a.Key] = a.Value
		return true
	})
	return m
}

// TestSlogTrace: events land at the documented levels with their fields.
func TestSlogTrace(t *testing.T) {
	h := &recordingHandler{}
	tr := SlogTrace(slog.New(h))

	tr.EmitOpDone("GET", "dpm1:80", "/f", 3*time.Millisecond, nil)
	tr.EmitRetry("GET", "dpm1:80", 2, errors.New("boom"))
	tr.EmitFailover("dpm1:80", "dpm2:80", errors.New("down"))
	tr.EmitBreakerTrip("dpm1:80")
	tr.EmitChunkDone(Down, "/f", 3, 1024, 512, nil)

	r, ok := h.find("davix op")
	if !ok {
		t.Fatal("no op-done record")
	}
	if r.Level != slog.LevelInfo {
		t.Fatalf("op done level = %v, want Info", r.Level)
	}
	if got := attrs(r)["op"].String(); got != "GET" {
		t.Fatalf("op = %q, want GET", got)
	}
	for _, msg := range []string{"davix retry", "davix failover", "davix breaker trip"} {
		r, ok := h.find(msg)
		if !ok {
			t.Fatalf("no %q record", msg)
		}
		if r.Level != slog.LevelWarn {
			t.Fatalf("%q level = %v, want Warn", msg, r.Level)
		}
	}
	r, ok = h.find("davix chunk done")
	if !ok {
		t.Fatal("no chunk-done record")
	}
	if r.Level != slog.LevelDebug {
		t.Fatalf("chunk done level = %v, want Debug", r.Level)
	}
	if got := attrs(r)["len"].Int64(); got != 512 {
		t.Fatalf("chunk len = %d, want 512", got)
	}
	if SlogTrace(nil) != nil {
		t.Fatal("SlogTrace(nil) must be nil")
	}
}

func sampleSnapshot() Snapshot {
	return Snapshot{
		Counters: []Counter{
			{Name: "requests_total", Help: "Total HTTP requests.", Value: 42},
			{Name: "bytes cached", Help: "Resident bytes.", Value: 7, Gauge: true},
		},
		Quantiles: []Quantile{
			{Op: `GET("range")`, Count: 10, P50: time.Millisecond, P90: 2 * time.Millisecond, P99: 4 * time.Millisecond},
		},
	}
}

// TestWritePrometheus: text-format rendering, name sanitization, label
// escaping.
func TestWritePrometheus(t *testing.T) {
	var sb strings.Builder
	if err := WritePrometheus(&sb, "davix-client", sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP davix_client_requests_total Total HTTP requests.",
		"# TYPE davix_client_requests_total counter",
		"davix_client_requests_total 42",
		"# TYPE davix_client_bytes_cached gauge",
		"davix_client_bytes_cached 7",
		"# TYPE davix_client_op_latency_seconds summary",
		`davix_client_op_latency_seconds{op="GET(\"range\")",quantile="0.5"} 0.001`,
		`davix_client_op_latency_seconds_count{op="GET(\"range\")"} 10`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestMetricsHandler: the /metrics endpoint speaks Prometheus text format.
func TestMetricsHandler(t *testing.T) {
	rec := httptest.NewRecorder()
	MetricsHandler("ns", sampleSnapshot).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "ns_requests_total 42") {
		t.Fatalf("body missing counter:\n%s", rec.Body.String())
	}
}

// TestPublishExpvar: the snapshot appears in the expvar registry, and
// re-publishing the same name swaps the source instead of panicking.
func TestPublishExpvar(t *testing.T) {
	PublishExpvar("obs_test_client", sampleSnapshot)
	v := expvar.Get("obs_test_client")
	if v == nil {
		t.Fatal("expvar not published")
	}
	if !strings.Contains(v.String(), `"requests_total"`) {
		t.Fatalf("expvar JSON missing counter: %s", v.String())
	}
	PublishExpvar("obs_test_client", func() Snapshot {
		return Snapshot{Counters: []Counter{{Name: "swapped", Value: 1}}}
	})
	if !strings.Contains(expvar.Get("obs_test_client").String(), `"swapped"`) {
		t.Fatalf("expvar not swapped: %s", expvar.Get("obs_test_client").String())
	}
}

// TestAccessLog: one Info record per request with the documented fields.
func TestAccessLog(t *testing.T) {
	h := &recordingHandler{}
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
		w.Write([]byte("hello"))
	})
	srv := httptest.NewServer(AccessLog(slog.New(h), inner))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/some/path")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	r, ok := h.find("request")
	if !ok {
		t.Fatal("no access-log record")
	}
	a := attrs(r)
	if got := a["method"].String(); got != "GET" {
		t.Fatalf("method = %q", got)
	}
	if got := a["path"].String(); got != "/some/path" {
		t.Fatalf("path = %q", got)
	}
	if got := a["status"].Int64(); got != 201 {
		t.Fatalf("status = %d", got)
	}
	if got := a["bytes"].Int64(); got != 5 {
		t.Fatalf("bytes = %d", got)
	}
	if a["duration"].Duration() < 0 {
		t.Fatal("negative duration")
	}
	if a["remote"].String() == "" {
		t.Fatal("empty remote")
	}
}

// TestAccessLogAbort: a handler that panics with http.ErrAbortHandler (the
// fault-injection idiom) still produces an access-log line, and the panic
// propagates for net/http to kill the connection.
func TestAccessLogAbort(t *testing.T) {
	h := &recordingHandler{}
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("part"))
		if f, ok := w.(http.Flusher); !ok {
			t.Error("wrapper hides http.Flusher")
		} else {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	})
	wrapped := AccessLog(slog.New(h), inner)
	rec := httptest.NewRecorder()
	func() {
		defer func() {
			if p := recover(); p != http.ErrAbortHandler {
				t.Fatalf("recovered %v, want ErrAbortHandler", p)
			}
		}()
		wrapped.ServeHTTP(rec, httptest.NewRequest("GET", "/f", nil))
	}()
	r, ok := h.find("request")
	if !ok {
		t.Fatal("aborted request not logged")
	}
	a := attrs(r)
	if got := a["bytes"].Int64(); got != 4 {
		t.Fatalf("bytes = %d, want 4", got)
	}
}

// TestDebugMux: the whole exposition surface answers, and unmatched paths
// fall through to the app handler.
func TestDebugMux(t *testing.T) {
	app := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("app:" + r.URL.Path))
	})
	mux := DebugMux("obs_test_mux", sampleSnapshot, app)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(p string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "obs_test_mux_requests_total 42") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, "obs_test_mux") {
		t.Fatalf("/debug/vars: %d", code)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: %d", code)
	}
	if code, body := get("/store/f"); code != 200 || body != "app:/store/f" {
		t.Fatalf("app fallthrough: %d %q", code, body)
	}
}
