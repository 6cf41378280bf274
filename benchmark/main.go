// Command benchmark is the repository's one committed benchmark: six named
// workloads, the end-to-end metrics a user of the library would see, and
// per-layer attribution measured from outside the product. See README.md.
//
//	go run ./benchmark                      all workloads, traced round, replays
//	go run ./benchmark -workload NAME ...   one workload; last stdout line is JSON
//	go run ./benchmark -compare A B         apply the bounds to two result sets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload and print the result as one JSON line (default: all six)")
	seed := fs.Int64("seed", 1, "seed of every generated input: object contents, dataset, op schedule")
	seconds := fs.Float64("seconds", 10, "measured seconds per workload, split over the rounds")
	trace := fs.Int("trace", -1, "1: add the traced round and layer replays and report per-layer metrics; 0: end-to-end only (default: 1 without -workload)")
	smoke := fs.Bool("smoke", false, "tiny scale: every code path in a few seconds, numbers meaningless")
	tmpdir := fs.String("tmpdir", "", "directory for scratch files (default: the system temp dir; a tmpfs such as /dev/shm is quietest)")
	out := fs.String("out", "", "directory to write trace-<workload>.json into (default: spans are not written)")
	jsonOut := fs.String("json", "", "append this run's full record to FILE, one JSON object per line")
	compare := fs.Bool("compare", false, "compare two result sets (-json files or summaries): benchmark -compare A B")
	summary := fs.String("summary", "", "print the medians and quartiles of the result set in FILE as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two files")
			return 2
		}
		return compareSets(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *summary != "":
		set, err := loadSet(*summary)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.Encode(set)
		return 0
	}

	cfg := config{
		seed: *seed, seconds: *seconds, sc: fullScale, tmpdir: *tmpdir, out: *out,
		trace: *trace == 1 || (*trace < 0 && *name == ""), setupReps: 5, replay: 100 * time.Millisecond,
	}
	if cfg.trace && *name != "" {
		cfg.setupReps = 1 // the traced result line carries no set-up time; do not spend the driver's time on it
	}
	if *smoke {
		cfg.sc, cfg.setupReps, cfg.replay = smokeScale, 1, 2*time.Millisecond
	}
	if cfg.out != "" {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	results, err := run(cfg, *name)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printResults(stdout, results)
	failed := 0
	for _, r := range results {
		failed += r.Failed
	}
	if *jsonOut != "" {
		if err := appendRecord(*jsonOut, cfg, *smoke, results); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *name != "" {
		// The driver's contract: the last line of standard output is one
		// JSON object, and correctness travels in it, not in the exit code.
		fmt.Fprintln(stdout, driverLine(results[0], cfg.trace))
		return 0
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "benchmark: %d ops failed or failed output verification\n", failed)
		return 1
	}
	return 0
}

// printResults prints every metric by name with its unit.
func printResults(w io.Writer, results []workloadResult) {
	for _, r := range results {
		fmt.Fprintf(w, "%s  [op = %s, %d iterations]\n", r.Workload, r.OpUnit, r.Iterations)
		for _, m := range endToEnd {
			d := r.EndToEnd[m.Name]
			fmt.Fprintf(w, "  %-18s %14.4f %-7s  (q1 %.4f, q3 %.4f, n=%d)\n", m.Name, d.Median, m.Unit, d.Q1, d.Q3, d.N)
		}
		fmt.Fprintf(w, "  %-18s %14.6f %-7s  (%d failed of %d attempted)\n", "fail_ratio", r.FailRatio, "ratio", r.Failed, r.Attempted)
	}
	for _, r := range results {
		if r.PerLayer == nil {
			continue
		}
		fmt.Fprintf(w, "%s  per-layer, traced round and replays\n", r.Workload)
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", m.Name, r.PerLayer[m.Name], m.Unit)
		}
	}
}

// driverLine renders one workload's result the way BENCHMARK.json's driver
// reads it: the end-to-end metrics of a plain run, or the per-layer
// metrics of a traced one.
func driverLine(r workloadResult, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, m := range perLayer {
			metrics[m.Name] = value{r.PerLayer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = value{r.EndToEnd[m.Name].Median, m.Unit}
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	return string(line)
}

// runRecord is one run as -json stores it.
type runRecord struct {
	Seed       int64            `json:"seed"`
	Nproc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	GoVersion  string           `json:"go_version"`
	Tmpdir     string           `json:"tmpdir"`
	Seconds    float64          `json:"seconds"`
	Rounds     int              `json:"rounds"`
	Smoke      bool             `json:"smoke"`
	Workloads  []workloadResult `json:"workloads"`
}

func appendRecord(path string, cfg config, smoke bool, results []workloadResult) error {
	tmp := cfg.tmpdir
	if tmp == "" {
		tmp = os.TempDir()
	}
	line, err := json.Marshal(runRecord{
		Seed: cfg.seed, Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Tmpdir: tmp, Seconds: cfg.seconds, Rounds: cfg.sc.rounds, Smoke: smoke, Workloads: results,
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resultSet is the across-runs view of a set of results: for every
// workload and end-to-end metric (and fail_ratio), the distribution of the
// runs' reported values.
type resultSet struct {
	Kind      string                     `json:"kind"` // "summary"
	Runs      int                        `json:"runs"`
	Workloads map[string]map[string]dist `json:"workloads"`
}

// loadSet reads either a -json file (one run per line) or a summary that
// -summary printed from one.
func loadSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if json.Unmarshal(data, &set) == nil && set.Kind == "summary" {
		return &set, nil
	}
	values := map[string]map[string][]float64{}
	runs := 0
	dec := json.NewDecoder(strings.NewReader(string(data)))
	for dec.More() {
		var rec runRecord
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs++
		for _, w := range rec.Workloads {
			if values[w.Workload] == nil {
				values[w.Workload] = map[string][]float64{}
			}
			for name, d := range w.EndToEnd {
				values[w.Workload][name] = append(values[w.Workload][name], d.Median)
			}
			values[w.Workload]["fail_ratio"] = append(values[w.Workload]["fail_ratio"], w.FailRatio)
		}
	}
	set = resultSet{Kind: "summary", Runs: runs, Workloads: map[string]map[string]dist{}}
	for w, ms := range values {
		set.Workloads[w] = map[string]dist{}
		for name, v := range ms {
			set.Workloads[w][name] = distOf(v)
		}
	}
	return &set, nil
}

// worsening is how much worse b is than a, as a share of a, in the
// direction the metric counts as worse; negative when b is better.
func worsening(m metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets applies every end-to-end bound to the medians of set B
// against set A, and returns 1 if any is breached or fail_ratio rose.
func compareSets(pathA, pathB string, stdout, stderr io.Writer) int {
	var sets [2]*resultSet
	for i, path := range []string{pathA, pathB} {
		var err error
		if sets[i], err = loadSet(path); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	return compareLoaded(sets[0], sets[1], stdout)
}

func compareLoaded(a, b *resultSet, w io.Writer) int {
	var names []string
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	breaches := 0
	fmt.Fprintf(w, "%-15s %-18s %14s %14s %8s %7s %8s %8s\n", "workload", "metric", "A median", "B median", "worse", "bound", "spreadA", "spreadB")
	for _, name := range names {
		wb, ok := b.Workloads[name]
		if !ok {
			fmt.Fprintf(w, "%-15s missing from B\n", name)
			breaches++
			continue
		}
		for _, m := range endToEnd {
			da, db := a.Workloads[name][m.Name], wb[m.Name]
			worse := worsening(m, da.Median, db.Median)
			verdict := ""
			if worse > m.Bound {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Fprintf(w, "%-15s %-18s %14.4f %14.4f %+7.1f%% %6.0f%% %7.1f%% %7.1f%%%s\n", name, m.Name,
				da.Median, db.Median, worse*100, m.Bound*100, spreadOf(da)*100, spreadOf(db)*100, verdict)
		}
		fa, fb := a.Workloads[name]["fail_ratio"], wb["fail_ratio"]
		verdict := ""
		if maxOf(fb) > maxOf(fa) {
			verdict = "  BREACH"
			breaches++
		}
		fmt.Fprintf(w, "%-15s %-18s %14.6f %14.6f%s\n", name, "fail_ratio (max)", maxOf(fa), maxOf(fb), verdict)
	}
	if breaches > 0 {
		fmt.Fprintf(w, "%d bound(s) breached\n", breaches)
		return 1
	}
	fmt.Fprintln(w, "all end-to-end metrics within their bounds")
	return 0
}

func spreadOf(d dist) float64 { return ratio(d.Q3-d.Q1, d.Median) }

// maxOf is the largest value of a distribution; summaries that dropped the
// values fall back to the third quartile.
func maxOf(d dist) float64 {
	m := d.Q3
	for _, v := range d.Values {
		m = max(m, v)
	}
	return m
}
