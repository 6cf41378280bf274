package bench

import (
	"bytes"
	"strings"
	"testing"

	"godavix/internal/httpserv"
	"godavix/internal/netsim"
	"godavix/internal/rootio"
)

// tinySpec keeps harness tests fast; the full-size runs live in
// cmd/davix-bench and the top-level benchmarks.
var tinySpec = rootio.SynthSpec{Events: 1500, Branches: 6, MeanPayload: 32, Seed: 3}

func tinyOpts() Options {
	return Options{Repeats: 2, Spec: tinySpec, Window: 500}
}

func TestAnalysisSameResultOnBothTransports(t *testing.T) {
	env, err := NewEnv(netsim.Ideal(), httpserv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if _, err := env.InstallDataset(DatasetPath, tinySpec); err != nil {
		t.Fatal(err)
	}

	hres, err := runHTTPAnalysis(env, tinyOpts(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	xres, err := runXrdAnalysis(env, tinyOpts(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if hres.Sum != xres.Sum || hres.Sum == 0 {
		t.Fatalf("sums differ: http=%d xrootd=%d", hres.Sum, xres.Sum)
	}
	if hres.Events != uint64(tinySpec.Events) {
		t.Fatalf("events = %d", hres.Events)
	}
}

func TestAnalysisFraction(t *testing.T) {
	env, err := NewEnv(netsim.Ideal(), httpserv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	env.InstallDataset(DatasetPath, tinySpec)

	half, err := runHTTPAnalysis(env, tinyOpts(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if half.Events != uint64(tinySpec.Events)/2 {
		t.Fatalf("half events = %d", half.Events)
	}
	full, err := runHTTPAnalysis(env, tinyOpts(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if half.Fills >= full.Fills {
		t.Fatalf("fills: half=%d full=%d", half.Fills, full.Fills)
	}
}

// TestFig4Shape asserts the paper's qualitative result: near-parity on
// LAN, XRootD ahead on WAN (its async sliding window hides the RTT).
func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	opts := tinyOpts()
	env, err := NewEnv(netsim.WAN(), httpserv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	env.InstallDataset(DatasetPath, opts.Spec)

	httpS, xrdS := &Sample{}, &Sample{}
	for i := 0; i < 3; i++ {
		h, err := runHTTPAnalysis(env, opts, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		x, err := runXrdAnalysis(env, opts, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		httpS.AddDuration(h.Duration)
		xrdS.AddDuration(x.Duration)
	}
	// WAN: XRootD must win (prefetch hides the per-window RTT).
	if xrdS.Min() >= httpS.Min() {
		t.Fatalf("WAN: xrootd (%.3fs) not faster than http (%.3fs)", xrdS.Min(), httpS.Min())
	}
}

func TestFig4TableRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	opts := tinyOpts()
	opts.Repeats = 1
	table, err := Fig4(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	var buf bytes.Buffer
	table.Render(&buf)
	out := buf.String()
	for _, want := range []string{"LAN", "PAN", "WAN", "Figure 4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestStatsSample(t *testing.T) {
	s := &Sample{}
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	if s.Mean() != 2.5 || s.N() != 4 || s.Min() != 1 {
		t.Fatalf("mean=%v n=%d min=%v", s.Mean(), s.N(), s.Min())
	}
	if d := s.Stddev(); d < 1.29 || d > 1.30 {
		t.Fatalf("stddev = %v", d)
	}
	if Pct(2, 3) != "+50.0%" || Pct(0, 1) != "n/a" {
		t.Fatalf("pct: %s %s", Pct(2, 3), Pct(0, 1))
	}
}
