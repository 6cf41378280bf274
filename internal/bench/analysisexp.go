package bench

import (
	"context"
	"fmt"
	"time"

	"godavix/internal/core"
	"godavix/internal/httpserv"
	"godavix/internal/netsim"
	"godavix/internal/rootio"
)

// analysisComputeSteps is the per-event reconstruction spin of the
// learned-prefetch experiment. Deliberately light: RunAnalysis's
// compute-bound calibration would hide the transfer pipeline this
// experiment measures, so here the WAN runs are transfer-bound — the
// regime where prefetch depth matters.
const analysisComputeSteps = 2000

// analysisTrainEvents bounds the TrainingCache learning phase of the
// learned configurations.
const analysisTrainEvents = 100

// analysisBranchSubset selects every third branch — a sparse column set,
// the typical ROOT selection touching a fraction of the tree. Sparseness
// is what separates the learned configurations from the block cache's
// read-ahead: that path only sees block reads, not the basket layout.
func analysisBranchSubset(spec rootio.SynthSpec) []int {
	n := spec.Branches
	if n == 0 {
		n = 12
	}
	var out []int
	for bi := 0; bi < n; bi += 3 {
		out = append(out, bi)
	}
	return out
}

// analysisWindow aligns the TreeCache window to the basket population so
// the loop sees roughly events/EventsPerBasket windows (~47 on the
// default spec) — enough round trips for pipelining to matter on the WAN,
// and basket-aligned so adjacent windows never re-fetch a boundary basket.
func analysisWindow(spec rootio.SynthSpec) uint64 {
	epb := spec.EventsPerBasket
	if epb == 0 {
		epb = 256
	}
	return uint64(epb)
}

// analysisRun is one cold-cache event-loop measurement.
type analysisRun struct {
	dur    time.Duration
	sum    uint64
	fills  int64
	issued int64
	wasted int64
}

// runAnalysisLoop drives the event loop over a per-branch fetch function,
// folding payloads in branch order so every configuration produces the
// same physics sum.
func runAnalysisLoop(events uint64, branches []int, get func(ev uint64, bi int) ([]byte, error)) (uint64, error) {
	var sum uint64
	payloads := make([][]byte, len(branches))
	for ev := uint64(0); ev < events; ev++ {
		for i, bi := range branches {
			p, err := get(ev, bi)
			if err != nil {
				return 0, fmt.Errorf("bench: analysis event %d branch %d: %w", ev, bi, err)
			}
			payloads[i] = p
		}
		sum += spinFold(payloads, analysisComputeSteps)
	}
	return sum, nil
}

// analysisDemand is the floor configuration: no cache anywhere, each
// branch read demand-pages its basket with its own round trip.
func analysisDemand(env *Env, branches []int) (analysisRun, error) {
	client, err := env.NewHTTPClient(core.Options{Strategy: core.StrategyNone, VectorParallelism: 1})
	if err != nil {
		return analysisRun{}, err
	}
	defer client.Close()
	ctx := context.Background()
	f, err := env.OpenHTTP(ctx, client, DatasetPath)
	if err != nil {
		return analysisRun{}, err
	}
	defer f.Close()
	r, err := rootio.OpenReader(HTTPSource(f))
	if err != nil {
		return analysisRun{}, err
	}
	start := time.Now()
	sum, err := runAnalysisLoop(r.Events(), branches, func(ev uint64, bi int) ([]byte, error) {
		vals, err := r.ReadEvent(ev, []int{bi})
		if err != nil {
			return nil, err
		}
		return vals[0], nil
	})
	if err != nil {
		return analysisRun{}, err
	}
	return analysisRun{dur: time.Since(start), sum: sum}, nil
}

// analysisCacheRA is the same demand loop behind the block cache's
// stride read-ahead: latency is partly hidden, but speculation sees only
// the block reads, not the basket layout the learned configurations use.
func analysisCacheRA(env *Env, branches []int) (analysisRun, error) {
	client, err := env.NewHTTPClient(core.Options{
		Strategy:          core.StrategyNone,
		VectorParallelism: 1,
		CacheSize:         32 << 20,
		PrefetchDepth:     4,
	})
	if err != nil {
		return analysisRun{}, err
	}
	defer client.Close()
	ctx := context.Background()
	f, err := env.OpenHTTP(ctx, client, DatasetPath)
	if err != nil {
		return analysisRun{}, err
	}
	defer f.Close()
	r, err := rootio.OpenReader(HTTPSourceReadAt(f))
	if err != nil {
		return analysisRun{}, err
	}
	start := time.Now()
	sum, err := runAnalysisLoop(r.Events(), branches, func(ev uint64, bi int) ([]byte, error) {
		vals, err := r.ReadEvent(ev, []int{bi})
		if err != nil {
			return nil, err
		}
		return vals[0], nil
	})
	if err != nil {
		return analysisRun{}, err
	}
	return analysisRun{dur: time.Since(start), sum: sum}, nil
}

// analysisLearned runs the TrainingCache loop over HTTP: depth 0 is
// today's synchronous learned TTreeCache (one blocking vectored fill per
// window), depth > 0 pipelines the next windows through the File's
// cancellable asynchronous vectored read.
func analysisLearned(env *Env, branches []int, window uint64, depth int) (analysisRun, error) {
	client, err := env.NewHTTPClient(core.Options{
		Strategy:          core.StrategyNone,
		VectorParallelism: 1,
	})
	if err != nil {
		return analysisRun{}, err
	}
	defer client.Close()
	ctx := context.Background()
	f, err := env.OpenHTTP(ctx, client, DatasetPath)
	if err != nil {
		return analysisRun{}, err
	}
	defer f.Close()
	src := HTTPSource(f)
	if depth > 0 {
		src = HTTPSourcePipelined(f)
	}
	r, err := rootio.OpenReader(src)
	if err != nil {
		return analysisRun{}, err
	}
	t := rootio.NewTrainingCacheDepth(r, analysisTrainEvents, window, depth)
	defer t.Close()
	start := time.Now()
	sum, err := runAnalysisLoop(r.Events(), branches, t.Branch)
	if err != nil {
		return analysisRun{}, err
	}
	res := analysisRun{dur: time.Since(start), sum: sum, fills: t.Fills()}
	res.issued, res.wasted, _ = t.PrefetchStats()
	return res, nil
}

// analysisXrd is the baseline the paper measured davix against: the same
// learned loop over the xrootd-like protocol with its native asynchronous
// readv (automatic depth — xrootd's double buffering).
func analysisXrd(env *Env, branches []int, window uint64) (analysisRun, error) {
	client := env.NewXrdClient()
	defer client.Close()
	ctx := context.Background()
	f, err := env.OpenXrd(ctx, client, DatasetPath)
	if err != nil {
		return analysisRun{}, err
	}
	defer f.Close(ctx)
	r, err := rootio.OpenReader(XrdSource(ctx, f))
	if err != nil {
		return analysisRun{}, err
	}
	t := rootio.NewTrainingCacheDepth(r, analysisTrainEvents, window, -1)
	defer t.Close()
	start := time.Now()
	sum, err := runAnalysisLoop(r.Events(), branches, t.Branch)
	if err != nil {
		return analysisRun{}, err
	}
	return analysisRun{dur: time.Since(start), sum: sum, fills: t.Fills()}, nil
}

// Analysis is the learned-prefetch proof: the cold-cache event loop over
// LAN and WAN links in four HTTP configurations — no cache, the block
// cache's read-ahead, learned synchronous TTreeCache, learned
// asynchronous pipelined TTreeCache — against the xrootd async baseline.
// Every configuration must produce the identical physics sum.
//
// On the WAN row the experiment asserts in-scenario that the pipelined
// path is at least 1.5x faster than the learned synchronous one, lands
// within 15% of the xrootd async baseline, and wastes at most 10% of the
// speculative bytes it issues.
func Analysis(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	depth := opts.PrefetchDepth
	window := analysisWindow(opts.Spec)
	branches := analysisBranchSubset(opts.Spec)
	table := &Table{
		Title:   "Learned prefetch: cold-cache analysis loop, HTTP configurations vs xrootd async",
		Columns: []string{"link", "no cache", "cache RA", "learned sync", "learned async", "xrootd async", "async vs sync", "async vs xrootd", "prefetch waste"},
		Notes: []string{
			fmt.Sprintf("learned async pipelines %d windows of %d events; %d of %d branches read", depth, window, len(branches), opts.Spec.Branches),
			"WAN gates: async ≥1.5x over learned sync, ≤15% behind xrootd async, waste ≤10% of issued prefetch bytes",
		},
	}

	for _, prof := range []netsim.Profile{netsim.LAN(), netsim.WAN()} {
		env, err := NewEnv(prof, httpserv.Options{})
		if err != nil {
			return nil, err
		}
		if _, err := env.InstallDataset(DatasetPath, opts.Spec); err != nil {
			env.Close()
			return nil, err
		}
		demandS, cacheRAS, syncS, asyncS, xrdS := &Sample{}, &Sample{}, &Sample{}, &Sample{}, &Sample{}
		var issued, wasted int64
		for rep := 0; rep < opts.Repeats; rep++ {
			type cfg struct {
				name   string
				sample *Sample
				run    func() (analysisRun, error)
			}
			cfgs := []cfg{
				{"no-cache", demandS, func() (analysisRun, error) { return analysisDemand(env, branches) }},
				{"cache-ra", cacheRAS, func() (analysisRun, error) { return analysisCacheRA(env, branches) }},
				{"learned-sync", syncS, func() (analysisRun, error) { return analysisLearned(env, branches, window, 0) }},
				{"learned-async", asyncS, func() (analysisRun, error) { return analysisLearned(env, branches, window, depth) }},
				{"xrootd-async", xrdS, func() (analysisRun, error) { return analysisXrd(env, branches, window) }},
			}
			var refSum uint64
			for i, c := range cfgs {
				res, err := c.run()
				if err != nil {
					env.Close()
					return nil, fmt.Errorf("analysis %s %s: %w", prof.Name, c.name, err)
				}
				c.sample.AddDuration(res.dur)
				if i == 0 {
					refSum = res.sum
				} else if res.sum != refSum {
					env.Close()
					return nil, fmt.Errorf("analysis %s %s: physics result differs: %d != %d", prof.Name, c.name, res.sum, refSum)
				}
				if c.name == "learned-async" {
					issued += res.issued
					wasted += res.wasted
				}
			}
		}

		wastePct := 0.0
		if issued > 0 {
			wastePct = float64(wasted) / float64(issued) * 100
		}
		if prof.Name == "WAN" {
			// In-scenario gates (chaos/server precedent): the experiment
			// fails the run when the pipeline does not deliver.
			if asyncS.Mean()*1.5 > syncS.Mean() {
				env.Close()
				return nil, fmt.Errorf("analysis WAN: pipelined speedup below 1.5x: sync %.3fs vs async %.3fs",
					syncS.Mean(), asyncS.Mean())
			}
			if asyncS.Mean() > xrdS.Mean()*1.15 {
				env.Close()
				return nil, fmt.Errorf("analysis WAN: pipelined HTTP more than 15%% behind xrootd async: async %.3fs vs xrootd %.3fs",
					asyncS.Mean(), xrdS.Mean())
			}
			if issued == 0 {
				env.Close()
				return nil, fmt.Errorf("analysis WAN: pipelined run issued no speculative bytes")
			}
			if wasted*10 > issued {
				env.Close()
				return nil, fmt.Errorf("analysis WAN: wasted prefetch above 10%%: %d of %d bytes", wasted, issued)
			}
		}

		ratio := "n/a"
		if asyncS.Mean() > 0 {
			ratio = fmt.Sprintf("%.2fx", syncS.Mean()/asyncS.Mean())
		}
		table.AddRow(
			prof.Name,
			Seconds(demandS),
			Seconds(cacheRAS),
			Seconds(syncS),
			Seconds(asyncS),
			Seconds(xrdS),
			ratio,
			Pct(xrdS.Mean(), asyncS.Mean()),
			fmt.Sprintf("%.1f%%", wastePct),
		)
		env.Close()
	}
	return table, nil
}
