package bench

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"sync/atomic"
	"testing"

	"godavix/internal/core"
	"godavix/internal/obs"
)

// zcTestSize keeps the harness tests fast; the 128 MiB runs live in
// cmd/davix-bench. 16 MiB is still two 8 MiB chunks, so the scatter path
// and the per-chunk kernel handoff are both exercised.
const zcTestSize = int64(16) << 20

// TestZerocopyKernelPathFires is the one test in the repo that proves the
// kernel byte path actually runs: over real loopback TCP into an *os.File,
// the splice path must move payload bytes that never touch userspace. (A
// few bytes per chunk arrive through the response reader's buffered prefix
// and are correctly classified pooled — the assertion is that the kernel
// path dominates, not that it is exclusive.)
func TestZerocopyKernelPathFires(t *testing.T) {
	s, _, m, err := zcDownload(zcKernel, zcTestSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 1 {
		t.Fatalf("samples = %d", s.N())
	}
	if m.KernelBytesDown == 0 {
		t.Fatal("kernel path never fired over real loopback TCP")
	}
	if m.KernelBytesDown < m.PooledBytesDown {
		t.Fatalf("kernel path did not dominate: %d kernel vs %d pooled",
			m.KernelBytesDown, m.PooledBytesDown)
	}
	// Warm-up + 1 measured op: every payload byte classified exactly once.
	if got := m.KernelBytesDown + m.PooledBytesDown; got != 2*zcTestSize {
		t.Fatalf("byte-path counters = %d, want %d", got, 2*zcTestSize)
	}
}

// TestZerocopyUploadSendfile is the upload mirror: a file-backed PutReader
// body on a plain TCP connection must ride the sendfile path, and turning
// verification on must force the same bytes through the digest tee onto
// the pooled path instead.
func TestZerocopyUploadSendfile(t *testing.T) {
	_, _, m, err := zcUpload(false, zcTestSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.KernelBytesUp == 0 {
		t.Fatal("sendfile path never fired over real loopback TCP")
	}
	if m.PooledBytesUp != 0 {
		t.Fatalf("PooledBytesUp = %d, want 0 with verification off", m.PooledBytesUp)
	}

	_, _, m, err = zcUpload(true, zcTestSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.KernelBytesUp != 0 {
		t.Fatalf("KernelBytesUp = %d, want 0: the digest tee must force pooled", m.KernelBytesUp)
	}
	if m.PooledBytesUp != 2*zcTestSize {
		t.Fatalf("PooledBytesUp = %d, want %d", m.PooledBytesUp, 2*zcTestSize)
	}
	if m.TransfersVerified != 2 {
		t.Fatalf("TransfersVerified = %d, want 2 (warm-up + measured)", m.TransfersVerified)
	}
}

// TestZerocopyDownloadContent checks the kernel path delivers the right
// bytes, not just fast ones: chunks spliced into the file at their offsets
// must reassemble the exact object.
func TestZerocopyDownloadContent(t *testing.T) {
	env, err := newZCEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	blob := make([]byte, zcTestSize)
	rand.New(rand.NewSource(63)).Read(blob)
	if err := env.store.Put(zcPath, blob); err != nil {
		t.Fatal(err)
	}
	client, err := env.newClient(core.Options{
		Strategy: core.StrategyNone, ChunkSize: 1 << 20, MaxStreams: zcStreams,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	f, err := os.CreateTemp(t.TempDir(), "zc-content-*.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, err := client.DownloadMultiStreamTo(context.Background(), env.addr, zcPath, f)
	if err != nil || n != zcTestSize {
		t.Fatalf("n=%d err=%v", n, err)
	}
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("kernel-path download content mismatch")
	}
}

// TestZerocopyByteAccountingReconciles is the regression guard against the
// PR-6 class of bug (wire bytes double-counted when observers were
// active): with trace hooks installed AND inline verification on, one
// verified download must classify every payload byte exactly once in the
// byte-path counters, report the same total through the TransferPath trace
// events, and keep the wire-byte counter within one header's width of the
// payload — any double charge fails all three.
func TestZerocopyByteAccountingReconciles(t *testing.T) {
	env, err := newZCEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	blob := make([]byte, zcTestSize)
	rand.New(rand.NewSource(64)).Read(blob)
	if err := env.store.Put(zcPath, blob); err != nil {
		t.Fatal(err)
	}

	var traced, chunks atomic.Int64
	client, err := env.newClient(core.Options{
		Strategy:        core.StrategyNone,
		ChunkSize:       1 << 20,
		MaxStreams:      zcStreams,
		VerifyTransfers: true,
		Trace: &obs.ClientTrace{
			TransferPath: func(dir obs.Direction, path string, bp obs.BytePath, n int64) {
				if dir == obs.Down {
					traced.Add(n)
				}
			},
			ChunkDone: func(dir obs.Direction, path string, idx int, off, length int64, err error) {
				if err == nil {
					chunks.Add(length)
				}
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	f, err := os.CreateTemp(t.TempDir(), "zc-recon-*.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, err := client.DownloadMultiStreamTo(context.Background(), env.addr, zcPath, f)
	if err != nil || n != zcTestSize {
		t.Fatalf("n=%d err=%v", n, err)
	}

	m := client.Metrics()
	if got := m.KernelBytesDown + m.PooledBytesDown; got != zcTestSize {
		t.Fatalf("byte-path counters = %d, want %d (payload classified other than exactly once)",
			got, zcTestSize)
	}
	if traced.Load() != zcTestSize {
		t.Fatalf("TransferPath events total %d, want %d", traced.Load(), zcTestSize)
	}
	if chunks.Load() != zcTestSize {
		t.Fatalf("ChunkDone lengths total %d, want %d", chunks.Load(), zcTestSize)
	}
	if m.TransfersVerified != 1 {
		t.Fatalf("TransfersVerified = %d, want 1", m.TransfersVerified)
	}
	// Wire bytes: at least the payload, at most payload + response heads.
	// A double-counted body would blow far past this ceiling.
	const headroom = 64 << 10
	if m.BytesDown < zcTestSize {
		t.Fatalf("BytesDown = %d undercounts the %d-byte payload", m.BytesDown, zcTestSize)
	}
	if m.BytesDown > zcTestSize+headroom {
		t.Fatalf("BytesDown = %d, payload is %d: wire bytes double-counted", m.BytesDown, zcTestSize)
	}
}

// zcVerifyAllocBudget bounds the bytes one verified 16 MiB streaming
// download may allocate, client and loopback server together: 93 KiB
// measured when the chunk-materialize ablation (16.1 MiB/op) was deleted,
// plus headroom. Materializing a single chunk would exceed it 40-fold.
const zcVerifyAllocBudget = 192 << 10

// TestZerocopyVerifyAllocBudget pins what the deleted "vs legacy buffers"
// row used to show: verification streams through pooled 64 KiB buffers and
// never allocates in proportion to the object.
func TestZerocopyVerifyAllocBudget(t *testing.T) {
	_, allocs, m, err := zcDownload(zcVerify, zcTestSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("verified download: %.0f B allocated/op (budget %d)", allocs, zcVerifyAllocBudget)
	if allocs > zcVerifyAllocBudget {
		t.Fatalf("%.0f B allocated/op exceeds the budget of %d", allocs, zcVerifyAllocBudget)
	}
	if m.TransfersVerified != 3 {
		t.Fatalf("TransfersVerified = %d, want 3 (warm-up + 2 measured)", m.TransfersVerified)
	}
}

// TestZerocopyTableRuns exercises the full experiment end to end at tiny
// scale: every row present, the verification column proving the digest
// rows verified and the pooled/kernel rows did not.
func TestZerocopyTableRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	old := zcBenchSize
	zcBenchSize = zcTestSize
	defer func() { zcBenchSize = old }()
	table, err := Zerocopy(Options{Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(table.Rows))
	}
	// Row layout: 3 download modes then 2 upload modes; "verified" is last.
	verified := func(i int) string { return table.Rows[i][len(table.Rows[i])-1] }
	if verified(1) == "0" {
		t.Fatal("pooled+digest download row did not verify")
	}
	if verified(0) != "0" || verified(2) != "0" {
		t.Fatalf("pooled/kernel rows claim verification: %q %q", verified(0), verified(2))
	}
	if verified(4) == "0" {
		t.Fatal("teed+digest upload row did not verify")
	}
	var buf bytes.Buffer
	table.Render(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("kernel splice")) {
		t.Fatalf("render missing kernel row:\n%s", buf.String())
	}
}
