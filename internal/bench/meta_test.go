package bench

import (
	"testing"

	"godavix/internal/netsim"
)

// TestMetaWalkSpeedupWAN pins the ISSUE-3 acceptance bar: the concurrent
// namespace walk must cut deep-tree wall-clock by at least 4x on the WAN
// profile versus the serial baseline, with identical emission order.
func TestMetaWalkSpeedupWAN(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	serial, serialOrder, err := runMetaWalk(netsim.WAN(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	parallel, parallelOrder, err := runMetaWalk(netsim.WAN(), metaConns, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("WAN serial %.3fs parallel %.3fs (%.2fx)",
		serial.Mean(), parallel.Mean(), serial.Mean()/parallel.Mean())
	if parallelOrder != serialOrder {
		t.Fatal("parallel walk order diverged from serial")
	}
	if parallel.Min()*4 > serial.Min() {
		t.Fatalf("parallel (%.3fs) not 4x faster than serial (%.3fs)",
			parallel.Min(), serial.Min())
	}
}

// metaDecodeAllocsBudget bounds the allocations of one List of a 10k-entry
// collection through the streaming multistatus decoder: 10039 measured once
// the scanner decoded straight into a pooled listing (one href string per
// entry; 20068 before, 690178 with the materialize-then-Unmarshal
// ablation), plus 25 %.
const metaDecodeAllocsBudget = 12500

// TestMetaDecodeAllocsBudget pins the other half of the bar: listing a
// 10k-entry collection must stay within its allocation budget.
func TestMetaDecodeAllocsBudget(t *testing.T) {
	allocs, err := metaDecodeAllocs(3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("allocs/op: %.0f (budget %d)", allocs, metaDecodeAllocsBudget)
	if allocs > metaDecodeAllocsBudget {
		t.Fatalf("%.0f allocs/op exceeds the budget of %d", allocs, metaDecodeAllocsBudget)
	}
}

// TestMetaOrderIdenticalLAN is the cheap always-on determinism check on the
// bench tree (the timing test above is skipped under -short).
func TestMetaOrderIdenticalLAN(t *testing.T) {
	_, serialOrder, err := runMetaWalk(netsim.LAN(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, parallelOrder, err := runMetaWalk(netsim.LAN(), metaConns, 1)
	if err != nil {
		t.Fatal(err)
	}
	if serialOrder == "" || serialOrder != parallelOrder {
		t.Fatal("parallel walk order diverged from serial")
	}
}

// TestMetaTableRuns exercises the experiment end to end.
func TestMetaTableRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	table, err := Meta(Options{Repeats: 1, Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
}

// BenchmarkMetaWalkWAN lets `go test -bench` compare serial and parallel
// namespace walks directly.
func BenchmarkMetaWalkWAN(b *testing.B) {
	for _, mode := range []struct {
		name string
		par  int
	}{{"serial", 1}, {"parallel", metaConns}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := runMetaWalk(netsim.WAN(), mode.par, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMetaDecodeAllocs reports the multistatus decoder's allocations.
func BenchmarkMetaDecodeAllocs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := metaDecodeAllocs(2); err != nil {
			b.Fatal(err)
		}
	}
}
