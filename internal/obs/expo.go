package obs

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is one monotonic counter (or point-in-time gauge) of a Snapshot.
type Counter struct {
	// Name is the metric name without namespace ("requests_total").
	Name string
	// Help is the one-line description emitted as Prometheus # HELP.
	Help string
	// Value is the current reading.
	Value int64
	// Gauge marks a point-in-time value (resident bytes, in-progress
	// uploads) rather than a monotonic counter.
	Gauge bool
}

// Quantile is one operation's latency summary inside a Snapshot.
type Quantile struct {
	// Op labels the operation ("GET", "PUT(range)", ...).
	Op string
	// Count is how many executions were recorded.
	Count int64
	// P50, P90 and P99 are the latency quantiles.
	P50, P90, P99 time.Duration
}

// Snapshot is the exposition-ready view of a component's metrics: a flat
// list of counters plus per-operation latency quantiles. Both the davix
// client (engine + pool counters) and the storage-gateway server
// render themselves into this shape, so one set of publishers (expvar,
// Prometheus) serves both.
type Snapshot struct {
	Counters  []Counter  `json:"counters"`
	Quantiles []Quantile `json:"quantiles,omitempty"`
}

// sanitizeMetricName maps s onto the Prometheus metric-name alphabet
// [a-zA-Z0-9_]; every other rune becomes '_', and a leading digit is
// prefixed.
func sanitizeMetricName(s string) string {
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9' && i > 0)
		if i == 0 && r >= '0' && r <= '9' {
			b.WriteByte('_')
			ok = true
		}
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabelValue escapes a Prometheus label value (backslash, quote,
// newline).
func escapeLabelValue(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// WritePrometheus renders s in the Prometheus text exposition format
// (version 0.0.4), every metric prefixed with namespace. Latency quantiles
// become a summary-style family <ns>_op_latency_seconds{op=...,quantile=...}
// with a matching _count.
func WritePrometheus(w io.Writer, namespace string, s Snapshot) error {
	ns := sanitizeMetricName(namespace)
	for _, c := range s.Counters {
		name := ns + "_" + sanitizeMetricName(c.Name)
		typ := "counter"
		if c.Gauge {
			typ = "gauge"
		}
		if c.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, c.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", name, typ, name, c.Value); err != nil {
			return err
		}
	}
	if len(s.Quantiles) > 0 {
		lat := ns + "_op_latency_seconds"
		if _, err := fmt.Fprintf(w, "# HELP %s Per-operation latency quantiles (histogram-bucket resolution).\n# TYPE %s summary\n", lat, lat); err != nil {
			return err
		}
		for _, q := range s.Quantiles {
			op := escapeLabelValue(q.Op)
			for _, v := range []struct {
				q string
				d time.Duration
			}{{"0.5", q.P50}, {"0.9", q.P90}, {"0.99", q.P99}} {
				if _, err := fmt.Fprintf(w, "%s{op=\"%s\",quantile=\"%s\"} %g\n", lat, op, v.q, v.d.Seconds()); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_count{op=\"%s\"} %d\n", lat, op, q.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// MetricsHandler serves fn's Snapshot in the Prometheus text format — the
// zero-dependency /metrics endpoint.
func MetricsHandler(namespace string, fn func() Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, namespace, fn())
	})
}

// published guards expvar re-publication: expvar.Publish panics on a
// duplicate name, so each name is registered once and later calls swap the
// snapshot function behind it instead.
var (
	publishMu sync.Mutex
	published = map[string]*atomic.Pointer[func() Snapshot]{}
)

// PublishExpvar exports fn's Snapshot under name in the process-wide expvar
// registry (served by /debug/vars), rendered as JSON on every read.
// Publishing an already-published name atomically replaces its snapshot
// source — safe for clients that are closed and rebuilt.
func PublishExpvar(name string, fn func() Snapshot) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if holder, ok := published[name]; ok {
		holder.Store(&fn)
		return
	}
	holder := &atomic.Pointer[func() Snapshot]{}
	holder.Store(&fn)
	published[name] = holder
	expvar.Publish(name, expvar.Func(func() any {
		return (*holder.Load())()
	}))
}
