package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// metricDef names one metric. Bound is the share of the baseline median by
// which an end-to-end metric may worsen before -compare (and the driver
// that reads BENCHMARK.json) calls it a regression; per-layer metrics have
// none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the library would see. Every workload reports
// all of them. fail_ratio is the sixth: it is normally exactly 0, so it
// travels as attempted/failed counts rather than as a bounded metric, and
// any increase is a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "op/s", "higher", 0.25},
	{"cpu_ms_per_kop", "ms/kop", "lower", 0.25},
	{"alloc_KB_per_op", "KB/op", "lower", 0.03},
	{"wire_bytes_per_op", "B/op", "lower", 0.03},
}

// config is one invocation's settings.
type config struct {
	seed      int64
	seconds   float64 // measured time per workload, split over the rounds
	sc        scale
	tmpdir    string
	out       string // directory for trace-<workload>.json; "" writes none
	trace     bool
	setupReps int
	replay    time.Duration // time budget of one layer replay
}

// dist summarizes a sample: the median is the reported value.
type dist struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values,omitempty"`
}

func distOf(v []float64) dist {
	q1, q3 := quartiles(v)
	return dist{Median: median(v), Q1: q1, Q3: q3, N: len(v), Values: v}
}

// workloadResult is everything measured for one workload in one run.
type workloadResult struct {
	Workload   string             `json:"workload"`
	OpUnit     string             `json:"op_unit"`
	EndToEnd   map[string]dist    `json:"end_to_end"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	FailRatio  float64            `json:"fail_ratio"`
	Iterations int                `json:"iterations"`
	IterWallMs [][]float64        `json:"iter_wall_ms"` // per round, per iteration
	IterCPUMs  [][]float64        `json:"iter_cpu_ms"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
}

// counters is one reading of everything sampled around an iteration.
type counters struct {
	cpu   time.Duration
	alloc uint64
	wire  wireCounts
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// iterSample is one timed iteration.
type iterSample struct {
	wall   time.Duration
	delta  counters
	ops    int
	failed int
}

// roundSample is one workload's share of one round: its iterations.
type roundSample []iterSample

// timeIteration runs one iteration of w between two counter readings. The
// readings are ordered so their own cost (ReadMemStats stops the world)
// falls outside both the wall and the CPU interval. Output checks run
// after the second reading.
//
// Every iteration starts from a collected heap. Collections an iteration
// triggers itself are timed; the garbage it leaves behind is collected
// here, outside the timed region. Without this an upload's 64 MiB buffers
// are freed at the collector's leisure, the heap keeps growing into pages
// it has never touched, and on a lazily backed VM each such page costs up
// to 65 µs: iterations then take 150 ms or 1500 ms depending on nothing
// the product did.
func timeIteration(w workload, rec *recorder) iterSample {
	d := w.bed().dialer
	runtime.GC()
	var c0, c1 counters
	c0.alloc, c0.wire, c0.cpu = totalAlloc(), d.counts(), processCPU()
	t0 := time.Now()
	ops, err := w.iterate(rec)
	wall := time.Since(t0)
	c1.cpu, c1.wire, c1.alloc = processCPU(), d.counts(), totalAlloc()
	failed := w.check()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: iteration failed: %v\n", w.name(), err)
		failed = ops
	}
	return iterSample{
		wall:   wall,
		delta:  counters{c1.cpu - c0.cpu, c1.alloc - c0.alloc, c1.wire.sub(c0.wire)},
		ops:    ops,
		failed: failed,
	}
}

// runRound iterates w until budget has passed, and at least minIters
// times: a round's values are medians over its iterations, and a median of
// one is no median. A traced round gets at least two iterations in any
// case, because its first one also captures bytes for the replays and is
// left out of the traced throughput.
func runRound(w workload, budget time.Duration, minIters int, rec *recorder) roundSample {
	if rec != nil {
		minIters = max(minIters, 2)
	}
	var rs roundSample
	deadline := time.Now().Add(budget)
	for i := 0; i < minIters || time.Now().Before(deadline); i++ {
		end := func() {}
		if rec != nil {
			end = rec.beginIter(i)
		}
		rs = append(rs, timeIteration(w, rec))
		end()
	}
	return rs
}

// values reduces a round to the per-round value of every end-to-end metric
// but setup_s. The two times come from the median iteration, not from
// total/total: an iteration that runs into a storm of first-touch page
// faults (hundreds of microseconds each on a lazily backed VM) costs ten
// times the usual wall and CPU, and must not move the round. The two
// counts repeat almost exactly and are totals over the round.
func (rs roundSample) values() map[string]float64 {
	var walls, cpus []float64
	var ops, alloc, wire float64
	for _, it := range rs {
		walls = append(walls, it.wall.Seconds())
		cpus = append(cpus, it.delta.cpu.Seconds())
		ops += float64(it.ops)
		alloc += float64(it.delta.alloc)
		wire += float64(it.delta.wire.up + it.delta.wire.down)
	}
	perIter := ops / float64(len(rs))
	return map[string]float64{
		"ops_per_s":         ratio(perIter, median(walls)),
		"cpu_ms_per_kop":    ratio(median(cpus)*1e3, perIter/1e3),
		"alloc_KB_per_op":   ratio(alloc/1024, ops),
		"wire_bytes_per_op": ratio(wire, ops),
	}
}

// run executes the whole benchmark for the selected workloads: repeated
// set-up, the interleaved plain rounds, and with cfg.trace the traced
// round and the layer replays.
func run(cfg config, names string) ([]workloadResult, error) {
	dir, err := os.MkdirTemp(cfg.tmpdir, "davix-benchmark-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up (testbed, seeded inputs, one warm-up iteration) is timed on
	// its own and repeated, because it is a metric: work moved out of the
	// rounds and into set-up has to show somewhere.
	var ws []workload
	setups := map[string][]float64{}
	results := map[string]*workloadResult{}
	defer func() {
		for _, w := range ws {
			w.close()
		}
	}()
	for rep := 0; rep < cfg.setupReps; rep++ {
		fresh, err := findWorkloads(names)
		if err != nil {
			return nil, err
		}
		for _, w := range fresh {
			runtime.GC()
			t0 := time.Now()
			if err := w.setup(cfg.seed, cfg.sc, dir); err != nil {
				w.close()
				return nil, fmt.Errorf("%s: setup: %w", w.name(), err)
			}
			ops, failed := w.warm()
			setups[w.name()] = append(setups[w.name()], time.Since(t0).Seconds())
			if rep < cfg.setupReps-1 {
				w.close()
				continue
			}
			ws = append(ws, w)
			results[w.name()] = &workloadResult{Workload: w.name(), OpUnit: w.opUnit(), Attempted: ops, Failed: failed}
		}
	}

	budget := time.Duration(cfg.seconds / float64(cfg.sc.rounds) * float64(time.Second))
	rounds := map[string][]map[string]float64{}
	for r := 0; r < cfg.sc.rounds; r++ {
		for _, w := range ws {
			rs := runRound(w, budget, cfg.sc.minIters, nil)
			rounds[w.name()] = append(rounds[w.name()], rs.values())
			res := results[w.name()]
			var walls, cpus []float64
			for _, it := range rs {
				res.Attempted += it.ops
				res.Failed += it.failed
				res.Iterations++
				walls = append(walls, it.wall.Seconds()*1e3)
				cpus = append(cpus, it.delta.cpu.Seconds()*1e3)
			}
			res.IterWallMs = append(res.IterWallMs, walls)
			res.IterCPUMs = append(res.IterCPUMs, cpus)
		}
	}
	for _, w := range ws {
		res := results[w.name()]
		res.EndToEnd = map[string]dist{"setup_s": distOf(setups[w.name()])}
		for name := range rounds[w.name()][0] {
			var v []float64
			for _, r := range rounds[w.name()] {
				v = append(v, r[name])
			}
			res.EndToEnd[name] = distOf(v)
		}
	}

	if cfg.trace {
		for _, w := range ws {
			res := results[w.name()]
			layers, rs, err := tracedRound(w, cfg, budget, res.EndToEnd["ops_per_s"].Median)
			if err != nil {
				return nil, fmt.Errorf("%s: traced round: %w", w.name(), err)
			}
			res.PerLayer = layers
			for _, it := range rs {
				res.Attempted += it.ops
				res.Failed += it.failed
			}
		}
	}

	var out []workloadResult
	for _, w := range ws {
		res := results[w.name()]
		res.FailRatio = ratio(float64(res.Failed), float64(res.Attempted))
		out = append(out, *res)
	}
	return out, nil
}
