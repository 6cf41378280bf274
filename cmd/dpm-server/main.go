// Command dpm-server runs the DPM-like HTTP/WebDAV storage server on a
// real TCP port, serving a directory tree. It supports GET/PUT/DELETE,
// single- and multi-range reads, MKCOL and PROPFIND — everything the davix
// client needs.
//
// Every request is access-logged as a structured log/slog line, and a
// debug surface is mounted alongside the data namespace: /metrics
// (Prometheus text format), /debug/vars (expvar JSON) and /debug/pprof
// (Go profiling). -no-debug turns the surface off, -quiet the access log.
//
// Overload protection is opt-in via the -max-inflight family of flags:
// with an in-flight limit set, excess requests queue briefly and are then
// shed with 503 + Retry-After, per-client fairness caps apply, upload
// stall detection cuts slow-loris writers, and abandoned partial uploads
// are reaped.
//
// Usage:
//
//	dpm-server -addr :8080 -root /tmp/dpmdata
//	dpm-server -addr :8080 -root /tmp/dpmdata -no-keepalive   # Figure 2 baseline
//	dpm-server -addr :8080 -root /tmp/dpmdata -max-inflight 256 -per-client 16 -per-client-rate 200
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"

	"godavix/internal/httpserv"
	"godavix/internal/obs"
	"godavix/internal/storage"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	root := flag.String("root", "", "directory to serve (required)")
	noKeepAlive := flag.Bool("no-keepalive", false, "disable HTTP keep-alive (close every connection)")
	token := flag.String("token", "", "require this bearer token on every request")
	noDebug := flag.Bool("no-debug", false, "disable /metrics, /debug/vars and /debug/pprof")
	quiet := flag.Bool("quiet", false, "disable the per-request access log")
	maxInflight := flag.Int("max-inflight", 0, "admission limit: max requests in flight (0 = unlimited)")
	queueDepth := flag.Int("queue-depth", 0, "admission queue depth (default: max-inflight)")
	queueWait := flag.Duration("queue-wait", 0, "max time a request may queue for a slot (default 100ms)")
	perClient := flag.Int("per-client", 0, "max concurrent requests per client (0 = unlimited)")
	perClientRate := flag.Float64("per-client-rate", 0, "sustained requests/s per client (0 = unlimited)")
	perClientBurst := flag.Int("per-client-burst", 0, "per-client rate burst (default: rate rounded up)")
	requestBudget := flag.Duration("request-budget", 0, "whole-request deadline (0 = none)")
	bodyStall := flag.Duration("body-stall", 0, "cut clients whose request headers or body stall this long (0 = off)")
	partialTTL := flag.Duration("partial-ttl", 0, "reap idle partial uploads after this long (default 1m)")
	flag.Parse()

	if *root == "" {
		fmt.Fprintln(os.Stderr, "dpm-server: -root is required")
		flag.Usage()
		os.Exit(2)
	}
	store, err := storage.NewDiskStore(*root)
	if err != nil {
		log.Fatalf("dpm-server: %v", err)
	}
	opts := httpserv.Options{
		DisableKeepAlive: *noKeepAlive,
		Limits: httpserv.Limits{
			MaxInFlight:          *maxInflight,
			QueueDepth:           *queueDepth,
			QueueWait:            *queueWait,
			PerClientConcurrency: *perClient,
			PerClientRate:        *perClientRate,
			PerClientBurst:       *perClientBurst,
			RequestBudget:        *requestBudget,
			BodyStallTimeout:     *bodyStall,
			PartialTTL:           *partialTTL,
		},
	}
	if *token != "" {
		want := "Bearer " + *token
		opts.Authorize = func(a string) bool { return a == want }
	}
	if !*quiet {
		trace := obs.SlogServerTrace(slog.New(slog.NewTextHandler(os.Stderr, nil)))
		opts.Trace = trace
	}
	srv := httpserv.New(store, opts)
	defer srv.Close()

	// Wrap the data namespace in the debug surface and the access log.
	// The log is outermost, so hits on /metrics and /debug/* are logged
	// like any data request.
	var h http.Handler = srv
	if !*noDebug {
		h = obs.DebugMux("dpmserver", srv.Snapshot, h)
	}
	if !*quiet {
		logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
		h = obs.AccessLog(logger, h)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("dpm-server: %v", err)
	}
	log.Printf("dpm-server: serving %s on %s (keepalive=%v debug=%v)", *root, l.Addr(), !*noKeepAlive, !*noDebug)
	if err := srv.ServeHandler(l, h); err != nil {
		log.Fatalf("dpm-server: %v", err)
	}
}
