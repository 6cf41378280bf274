package bench

import (
	"testing"

	"godavix/internal/netsim"
)

// TestVecParSpeedupWAN pins the ISSUE-2 acceptance bar: concurrent batch
// dispatch must cut multi-batch vectored-read wall-clock by at least 2x on
// the WAN profile versus the serial baseline.
func TestVecParSpeedupWAN(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	serial, err := runVecPar(netsim.WAN(), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runVecPar(netsim.WAN(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("WAN serial %.3fs parallel %.3fs (%.2fx)",
		serial.Mean(), parallel.Mean(), serial.Mean()/parallel.Mean())
	if parallel.Min()*2 > serial.Min() {
		t.Fatalf("parallel (%.3fs) not 2x faster than serial (%.3fs)",
			parallel.Min(), serial.Min())
	}
}

// vecParAllocsBudget bounds the steady-state allocations of one 512-fragment
// vectored read on the streaming, buffer-pooled scatter path: 2112 measured
// when the materialize-then-scatter ablation (6226 allocs/op) was deleted,
// plus headroom.
const vecParAllocsBudget = 2600

// TestVecParAllocsBudget pins the other half of the bar: the scatter path
// must stay within its allocation budget — materializing parts again would
// triple it.
func TestVecParAllocsBudget(t *testing.T) {
	allocs, err := vecParAllocs(5)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("allocs/op: %.0f (budget %d)", allocs, vecParAllocsBudget)
	if allocs > vecParAllocsBudget {
		t.Fatalf("%.0f allocs/op exceeds the budget of %d", allocs, vecParAllocsBudget)
	}
}

// TestVecParTableRuns exercises the experiment end to end at tiny scale.
func TestVecParTableRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	table, err := VecPar(Options{Repeats: 1, Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
}

// BenchmarkVecParWAN lets `go test -bench` compare serial and parallel
// batch dispatch directly; allocations are reported so a pooling
// regression fails loudly in review.
func BenchmarkVecParWAN(b *testing.B) {
	for _, mode := range []struct {
		name string
		par  int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := runVecPar(netsim.WAN(), mode.par, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVecParAllocs reports the scatter path's allocations.
func BenchmarkVecParAllocs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := vecParAllocs(2); err != nil {
			b.Fatal(err)
		}
	}
}
