package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// BENCHMARK.json and the tables in the code are the same definitions.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	ws := allWorkloads()
	if len(m.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(m.Workloads), len(ws))
	}
	for i, w := range ws {
		if m.Workloads[i].Name != w.name() {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, m.Workloads[i].Name, w.name())
		}
		if why := m.Workloads[i].Why; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name())
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
		unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", kind, i, got[i], want[i])
			}
			if seen[want[i].Name] || !name.MatchString(want[i].Name) || !unit.MatchString(want[i].Unit) {
				t.Errorf("%s: bad or repeated name or unit in %+v", kind, want[i])
			}
			seen[want[i].Name] = true
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
	for _, e := range endToEnd {
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", m.Paths, m.RunSeconds)
	}
}

// goroutinesSettle waits for the goroutine count to come back down to
// base: server connection goroutines end a moment after their peers close.
func goroutinesSettle(base int) int {
	deadline := time.Now().Add(3 * time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// The smoke run asserts no timings: only that every workload and the
// traced round run to the end with every output verified, that every
// metric BENCHMARK.json names is printed exactly once per workload with
// its unit, and that nothing outlives the run.
func TestSmokeRunEmitsEveryMetricOncePerWorkload(t *testing.T) {
	m := readManifest(t)
	base := runtime.NumGoroutine()
	tmp, out := t.TempDir(), t.TempDir()
	results := filepath.Join(t.TempDir(), "results.jsonl")
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-smoke", "-seconds", "0.02", "-seed", "7", "-tmpdir", tmp, "-out", out, "-json", results}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\nstderr:\n%s", code, stderr.String())
	}

	// The output is one end-to-end block and one per-layer block per
	// workload; split it by the unindented header lines.
	blocks := map[string][]string{}
	var current string
	for _, line := range strings.Split(stdout.String(), "\n") {
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, " ") {
			current = strings.Fields(line)[0]
			continue
		}
		blocks[current] = append(blocks[current], line)
	}
	for _, w := range m.Workloads {
		for _, def := range append(append([]metricDef{}, m.EndToEnd...), m.PerLayer...) {
			n := 0
			for _, line := range blocks[w.Name] {
				if f := strings.Fields(line); len(f) >= 3 && f[0] == def.Name && f[2] == def.Unit {
					n++
				}
			}
			if n != 1 {
				t.Errorf("%s: metric %s [%s] printed %d times, want once", w.Name, def.Name, def.Unit, n)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w.Name, err)
		}
	}

	set, err := loadSet(results)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Workloads {
		if set.Workloads[w.Name]["fail_ratio"].Median != 0 {
			t.Errorf("%s: output verification failed in the smoke run", w.Name)
		}
		if set.Workloads[w.Name]["ops_per_s"].N != 1 {
			t.Errorf("%s: missing from the -json record", w.Name)
		}
	}

	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("%d scratch entries outlived the run, first %s", len(left), left[0].Name())
	}
	if n := goroutinesSettle(base); n > base {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines outlived the run (started with %d)\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}

// One workload at a time is how the driver runs the benchmark: the last
// line of standard output is the result object.
func TestDriverLineCarriesExactlyTheManifestMetrics(t *testing.T) {
	m := readManifest(t)
	for _, tc := range []struct {
		trace string
		want  []metricDef
	}{{"0", m.EndToEnd}, {"1", m.PerLayer}} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "meta_walk_tcp", "--seed", "3", "--seconds", "0.02", "--trace", tc.trace, "-smoke", "-tmpdir", t.TempDir()}
		if code := realMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit code %d\n%s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
		}
		if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
			t.Errorf("trace %s: correct/attempted/failed = %v", tc.trace, lines[len(lines)-1])
		}
		if len(got.Metrics) != len(tc.want) {
			t.Errorf("trace %s: %d metrics, want %d", tc.trace, len(got.Metrics), len(tc.want))
		}
		for _, def := range tc.want {
			if v, ok := got.Metrics[def.Name]; !ok || v.Value == nil || v.Unit != def.Unit {
				t.Errorf("trace %s: metric %s missing or with the wrong unit", tc.trace, def.Name)
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"--workload", "no_such_workload", "-smoke"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit code %d, stdout %q", code, stdout.String())
	}
}

func writeSet(t *testing.T, opsPerS float64, failRatio float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "set.jsonl")
	var b strings.Builder
	for run := 0; run < 3; run++ {
		rec := runRecord{Seed: int64(run), Workloads: []workloadResult{{
			Workload: "bulk_get_tcp", FailRatio: failRatio,
			EndToEnd: map[string]dist{
				"setup_s":           distOf([]float64{0.3}),
				"ops_per_s":         distOf([]float64{opsPerS + float64(run)}),
				"cpu_ms_per_kop":    distOf([]float64{1500}),
				"alloc_KB_per_op":   distOf([]float64{5}),
				"wire_bytes_per_op": distOf([]float64{1048600}),
			},
		}}}
		line, _ := json.Marshal(rec)
		fmt.Fprintf(&b, "%s\n", line)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareAppliesTheBounds(t *testing.T) {
	base := writeSet(t, 1000, 0)
	for _, tc := range []struct {
		name string
		b    string
		want int
	}{
		{"identical", writeSet(t, 1000, 0), 0},
		{"10% slower is inside the 25% bound", writeSet(t, 900, 0), 0},
		{"40% slower breaches", writeSet(t, 600, 0), 1},
		{"faster is never a breach", writeSet(t, 2000, 0), 0},
		{"any new failure breaches", writeSet(t, 1000, 0.001), 1},
	} {
		var stdout, stderr bytes.Buffer
		if got := realMain([]string{"-compare", base, tc.b}, &stdout, &stderr); got != tc.want {
			t.Errorf("%s: exit code %d, want %d\n%s", tc.name, got, tc.want, stdout.String())
		}
	}

	// A summary printed by -summary compares like the set it came from.
	var summary, stderr bytes.Buffer
	if code := realMain([]string{"-summary", base}, &summary, &stderr); code != 0 {
		t.Fatal(stderr.String())
	}
	sumPath := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(sumPath, summary.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if got := realMain([]string{"-compare", sumPath, writeSet(t, 600, 0)}, &stdout, &stderr); got != 1 {
		t.Errorf("summary as baseline: exit code %d, want 1\n%s", got, stdout.String())
	}
}
