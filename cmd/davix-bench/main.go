// Command davix-bench runs the experiments that have no exact package test
// or committed benchmark workload yet on the simulated testbed, printing one
// table per experiment. Figures 1–3 are reproduced by the root package's
// benchmarks (go test -bench 'Fig[123]' -run '^$' .), and Figure 4 is held
// as counts by go test -v -run Parity ./internal/xrootd.
//
// Usage:
//
//	davix-bench                           # every experiment, default sizes
//	davix-bench -experiment cache         # just the block-cache experiment
//	davix-bench -repeats 10
//	davix-bench -experiment resil -json BENCH_resil.json
//
// Experiments: cache, resil, zerocopy, all.
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

	"godavix/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run")
	jsonPath := flag.String("json", "", "also write the run's tables to this file as JSON")
	repeats := flag.Int("repeats", 5, "measurement repeats per configuration")
	flag.Parse()

	opts := bench.Options{Repeats: *repeats}

	type exp struct {
		name string
		run  func(bench.Options) (*bench.Table, error)
	}
	all := []exp{
		{"cache", bench.CacheBench},
		{"resil", bench.Resil},
		{"zerocopy", bench.Zerocopy},
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
