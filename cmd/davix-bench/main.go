// Command davix-bench runs the experiments that have no exact package test
// or committed benchmark workload yet on the simulated testbed, printing one
// table per experiment. Figures 1–3 are reproduced by the root package's
// benchmarks (go test -bench 'Fig[123]' -run '^$' .).
//
// Usage:
//
//	davix-bench                           # every experiment, default sizes
//	davix-bench -experiment fig4          # just Figure 4
//	davix-bench -experiment fig4 -fractions 0.1,0.5,1.0
//	davix-bench -repeats 10 -events 12000
//	davix-bench -experiment resil -json BENCH_resil.json
//
// Experiments: fig4, fig4async, cache, resil, zerocopy, server, chaos,
// analysis, all.
//
// The analysis experiment compares the cold-cache event loop across HTTP
// prefetch configurations (none, block-cache read-ahead, learned sync,
// learned async pipelined) against the xrootd async baseline; -prefetch-depth sets
// how many windows the pipelined configuration keeps in flight.
//
// With -json, every table produced by the run is also written to the given
// file as a JSON array — CI uses this to track the performance trajectory
// across PRs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"godavix/internal/bench"
	"godavix/internal/rootio"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run")
	jsonPath := flag.String("json", "", "also write the run's tables to this file as JSON")
	repeats := flag.Int("repeats", 5, "measurement repeats per configuration")
	events := flag.Int("events", 12000, "events in the synthetic dataset")
	branches := flag.Int("branches", 12, "branches in the synthetic dataset")
	meanPayload := flag.Int("mean-payload", 64, "mean branch payload bytes")
	window := flag.Uint64("window", 3000, "TreeCache window in events")
	fractionsArg := flag.String("fractions", "1.0", "comma-separated event fractions for fig4")
	clients := flag.Int("clients", 128, "admission limit / client count for the server load scenario")
	prefetchDepth := flag.Int("prefetch-depth", 3, "window pipeline depth for the analysis experiment's learned-async configuration")
	flag.Parse()

	var fractions []float64
	for _, f := range strings.Split(*fractionsArg, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 || v > 1 {
			log.Fatalf("davix-bench: bad fraction %q", f)
		}
		fractions = append(fractions, v)
	}

	opts := bench.Options{
		Repeats: *repeats,
		Spec: rootio.SynthSpec{
			Events:      *events,
			Branches:    *branches,
			MeanPayload: *meanPayload,
			Seed:        1,
		},
		Window:        *window,
		Fractions:     fractions,
		Clients:       *clients,
		PrefetchDepth: *prefetchDepth,
	}

	type exp struct {
		name string
		run  func(bench.Options) (*bench.Table, error)
	}
	all := []exp{
		{"fig4", bench.Fig4},
		{"fig4async", bench.Fig4HTTPAsync},
		{"cache", bench.CacheBench},
		{"resil", bench.Resil},
		{"zerocopy", bench.Zerocopy},
		{"server", bench.ServerLoad},
		{"chaos", bench.Chaos},
		{"analysis", bench.Analysis},
	}

	ran := 0
	var tables []*bench.Table
	for _, e := range all {
		if *experiment != "all" && *experiment != e.name {
			continue
		}
		ran++
		fmt.Fprintf(os.Stderr, "running %s...\n", e.name)
		table, err := e.run(opts)
		if err != nil {
			log.Fatalf("davix-bench: %s: %v", e.name, err)
		}
		table.Render(os.Stdout)
		tables = append(tables, table)
	}
	if ran == 0 {
		log.Fatalf("davix-bench: unknown experiment %q", *experiment)
	}
	if *jsonPath != "" {
		out, err := json.MarshalIndent(tables, "", " ")
		if err != nil {
			log.Fatalf("davix-bench: marshal tables: %v", err)
		}
		if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
			log.Fatalf("davix-bench: write %s: %v", *jsonPath, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
	}
}
