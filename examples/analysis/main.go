// Analysis: the paper's §3 experiment in miniature. A synthetic HEP event
// file (RNT format, compressed baskets) is served over a simulated WAN by
// both a DPM-like HTTP server and an XRootD-like server; the same ROOT-
// style analysis (full event scan through a TreeCache) runs over each
// transport and the execution times are compared — Figure 4, live.
//
// This example keeps the HTTP path synchronous (one blocking multi-range
// request per window) to reproduce the paper's published gap. The HTTP
// path is no longer limited to that: over bench.HTTPSourcePipelined, a
// TreeCache built with a depth (rootio.NewTreeCacheDepth or
// NewTrainingCacheDepth) keeps that many upcoming windows in flight as
// cancellable background vectored reads, ⌊(depth+1)/2⌋ windows to a
// request, and fetches every basket once — `davix-bench -experiment
// analysis` measures that configuration against the xrootd baseline.
// The fill counts printed below are requests: here, at depth 0 and at the
// xrootd path's automatic depth 1, one per window.
//
// Run with: go run ./examples/analysis
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"godavix/internal/bench"
	"godavix/internal/core"
	"godavix/internal/httpserv"
	"godavix/internal/netsim"
	"godavix/internal/rootio"
)

func main() {
	spec := rootio.SynthSpec{Events: 6000, Branches: 8, MeanPayload: 64, Seed: 7}

	for _, prof := range []netsim.Profile{netsim.LAN(), netsim.WAN()} {
		env, err := bench.NewEnv(prof, httpserv.Options{})
		if err != nil {
			log.Fatal(err)
		}
		size, err := env.InstallDataset(bench.DatasetPath, spec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n--- %s link (RTT %v), dataset %.1f MiB, %d events ---\n",
			prof.Name, prof.RTT, float64(size)/(1<<20), spec.Events)

		// davix / HTTP: TreeCache gathers each window into one multi-range
		// request (synchronous vectored reads).
		httpClient, err := env.NewHTTPClient(core.Options{Strategy: core.StrategyNone})
		if err != nil {
			log.Fatal(err)
		}
		ctx := context.Background()
		hf, err := env.OpenHTTP(ctx, httpClient, bench.DatasetPath)
		if err != nil {
			log.Fatal(err)
		}
		hres, err := bench.RunAnalysis(bench.HTTPSource(hf), 1.0, 1500, nil)
		if err != nil {
			log.Fatal(err)
		}
		httpClient.Close()

		// XRootD baseline: same TreeCache, but the async readv lets the
		// next window transfer while this one is processed.
		xc := env.NewXrdClient()
		xf, err := env.OpenXrd(ctx, xc, bench.DatasetPath)
		if err != nil {
			log.Fatal(err)
		}
		xres, err := bench.RunAnalysis(bench.XrdSource(ctx, xf), 1.0, 1500, nil)
		if err != nil {
			log.Fatal(err)
		}
		xc.Close()

		if hres.Sum != xres.Sum {
			log.Fatalf("physics results differ: %d != %d", hres.Sum, xres.Sum)
		}
		fmt.Printf("  davix/HTTP : %8s  (%d vectored fills, %d GETs)\n",
			round(hres.Duration), hres.Fills, env.HTTPServer.RequestsByMethod("GET"))
		fmt.Printf("  XRootD-like: %8s  (%d vectored fills, %d readv)\n",
			round(xres.Duration), xres.Fills, env.XrdServer.ReadVs())
		diff := float64(hres.Duration-xres.Duration) / float64(xres.Duration) * 100
		fmt.Printf("  HTTP vs XRootD: %+.1f%%  (paper: LAN ≈ parity, WAN ≈ +17.5%%)\n", diff)
		fmt.Printf("  physics checksum: %d (identical on both transports)\n", hres.Sum)
		env.Close()
	}
}

func round(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
