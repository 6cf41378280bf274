package bench

import (
	"testing"

	"godavix/internal/netsim"
)

// TestXferSpeedupLAN pins the ISSUE-4 acceptance bar: the 16-chunk
// multi-stream upload must beat the serial Put by a wide margin on the LAN
// profile (the bench reports ~4.5x; 3x here keeps the regression floor
// clear of shared-runner timing noise). The two are measured back to back
// as a pair, so a neighbour's burst of load hits both or neither, and up
// to three pairs are tried: the bar is a property of the code, and one
// quiet pair shows it.
func TestXferSpeedupLAN(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	if raceEnabled {
		t.Skip("race instrumentation swamps the simulated 16 MiB transfer")
	}
	const pairs = 3
	for i := 1; ; i++ {
		serial, err := runXferUpload(netsim.LAN(), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := runXferUpload(netsim.LAN(), xferConns, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("pair %d: LAN serial %.3fs parallel %.3fs (%.2fx)",
			i, serial.Min(), parallel.Min(), serial.Min()/parallel.Min())
		if parallel.Min()*3 <= serial.Min() {
			return
		}
		if i == pairs {
			t.Fatalf("parallel upload (%.3fs) not 3x faster than serial Put (%.3fs) in any of %d pairs",
				parallel.Min(), serial.Min(), pairs)
		}
	}
}

// TestXferUploadAllocsAreChunkBound: PutReader must move an 8 MiB object
// while allocating orders of magnitude less than materialize-then-Put —
// O(chunk), not O(file).
func TestXferUploadAllocsAreChunkBound(t *testing.T) {
	streaming, err := putAllocBytes(true, 5)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := putAllocBytes(false, 5)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("B/op: streaming=%.0f materialize=%.0f", streaming, seed)
	if streaming > seed/50 {
		t.Fatalf("PutReader allocates %.0f B/op, not chunk-bound vs %.0f B/op materialized", streaming, seed)
	}
}

// TestXferDownloadAllocsDropWriterAt: downloading into an io.WriterAt must
// shed the O(file) output buffer that DownloadMultiStream assembles.
func TestXferDownloadAllocsDropWriterAt(t *testing.T) {
	to, err := downloadAllocBytes(true, 3)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := downloadAllocBytes(false, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("B/op: writerAt=%.0f materialize=%.0f", to, buf)
	// The materializing path must pay at least the 8 MiB object on top.
	if buf-to < float64(xferAllocMB<<20)/2 {
		t.Fatalf("WriterAt path (%.0f B/op) does not shed the O(file) buffer vs %.0f B/op", to, buf)
	}
}

// TestXferTableRuns exercises the experiment end to end at tiny scale.
func TestXferTableRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	table, err := Xfer(Options{Repeats: 1, Spec: tinySpec})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
}

// BenchmarkXferUploadLAN lets `go test -bench` compare the serial and
// multi-stream uploads directly.
func BenchmarkXferUploadLAN(b *testing.B) {
	for _, mode := range []struct {
		name string
		par  int
	}{{"serial", 1}, {"multistream", xferConns}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := runXferUpload(netsim.LAN(), mode.par, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
