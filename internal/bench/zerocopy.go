package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"

	"godavix/internal/core"
	"godavix/internal/httpserv"
	"godavix/internal/netsim"
	"godavix/internal/pool"
	"godavix/internal/storage"
)

// zerocopy-benchmark geometry: a transfer big enough that the per-byte
// cost (copies, digest arithmetic, allocation churn) dominates the
// per-chunk protocol overhead. The paper's workload is 1 GiB-class
// replicas; CI scales that to 128 MiB, which is still 16 chunks of 8 MiB.
const (
	zcSize    = int64(128) << 20 // 128 MiB object
	zcChunk   = 8 << 20          // 8 MiB chunks -> 16 chunks
	zcStreams = 4
	zcPath    = "/store/zerocopy.dat"
)

// zcBenchSize is the object size the Zerocopy experiment moves; a var so
// the harness test can run the full table at tiny scale.
var zcBenchSize = zcSize

// zcEnv is the zerocopy testbed. Unlike every other experiment it runs
// over REAL loopback TCP, not the netsim fabric: the kernel
// sendfile/splice path needs file descriptors on both ends, and netsim
// pipes are not syscall.Conn, so the fast path can never fire there. The
// byte-path counters in the results are the proof of which path ran.
type zcEnv struct {
	store *storage.MemStore
	l     net.Listener
	addr  string
}

func newZCEnv() (*zcEnv, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("bench: loopback listen: %w", err)
	}
	store := storage.NewMemStore()
	go httpserv.New(store, httpserv.Options{}).Serve(l)
	return &zcEnv{store: store, l: l, addr: l.Addr().String()}, nil
}

func (e *zcEnv) Close() { e.l.Close() }

// newClient builds a davix client that dials the loopback server over
// plain TCP — the connections it pools are *net.TCPConn, which is what
// makes them eligible for the kernel byte path.
func (e *zcEnv) newClient(opts core.Options) (*core.Client, error) {
	opts.Dialer = pool.DialerFunc(func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	})
	if opts.Pool.MaxPerHost == 0 {
		opts.Pool.MaxPerHost = zcStreams
	}
	return core.NewClient(opts)
}

// fileOnlyWriterAt hides the *os.File from the downloader, forcing the
// streaming pooled path even with verification off — the digest-free
// pooled baseline the "≤3% verification overhead" claim is measured
// against (kernel vs pooled would conflate copy savings with digest cost).
type fileOnlyWriterAt struct{ f *os.File }

func (w fileOnlyWriterAt) WriteAt(p []byte, off int64) (int, error) { return w.f.WriteAt(p, off) }

// Download byte-path variants.
const (
	zcKernel = "kernel splice" // stream raw socket -> file, zero userspace copies
	zcPooled = "pooled stream" // stream through 64 KiB pooled buffers, no digest
	zcVerify = "pooled+digest" // pooled stream with the inline digest tee
)

// zcDownload times `repeats` multi-stream downloads of a size-byte object
// in the given byte-path mode, returning the timing sample, client-side
// bytes allocated per op, and the client's final byte-path counters.
func zcDownload(mode string, size int64, repeats int) (*Sample, float64, core.Metrics, error) {
	env, err := newZCEnv()
	if err != nil {
		return nil, 0, core.Metrics{}, err
	}
	defer env.Close()
	blob := make([]byte, size)
	rand.New(rand.NewSource(61)).Read(blob)
	if err := env.store.Put(zcPath, blob); err != nil {
		return nil, 0, core.Metrics{}, err
	}

	opts := core.Options{
		Strategy:        core.StrategyNone,
		ChunkSize:       zcChunk,
		MaxStreams:      zcStreams,
		VerifyTransfers: mode == zcVerify,
	}
	client, err := env.newClient(opts)
	if err != nil {
		return nil, 0, core.Metrics{}, err
	}
	defer client.Close()

	f, err := os.CreateTemp("", "zerocopy-*.dat")
	if err != nil {
		return nil, 0, core.Metrics{}, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	var dst io.WriterAt = f
	if mode == zcPooled {
		dst = fileOnlyWriterAt{f}
	}

	ctx := context.Background()
	op := func() error {
		n, err := client.DownloadMultiStreamTo(ctx, env.addr, zcPath, dst)
		if err != nil {
			return err
		}
		if n != size {
			return fmt.Errorf("bench: zerocopy download: %d bytes, want %d", n, size)
		}
		return nil
	}
	if err := op(); err != nil { // warm the pool and the page cache
		return nil, 0, core.Metrics{}, err
	}
	if repeats <= 0 {
		repeats = 1
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s := &Sample{}
	for rep := 0; rep < repeats; rep++ {
		timer := startTimer()
		if err := op(); err != nil {
			return nil, 0, core.Metrics{}, err
		}
		s.AddDuration(timer())
	}
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(repeats)
	return s, allocs, client.Metrics(), nil
}

// zcUpload times `repeats` PutReader uploads of a size-byte file. With
// verify off the file-backed body rides the kernel sendfile path; with
// verify on the digest tee forces it through pooled buffers — that
// contrast is the upload half of the byte-path/integrity trade.
func zcUpload(verify bool, size int64, repeats int) (*Sample, float64, core.Metrics, error) {
	env, err := newZCEnv()
	if err != nil {
		return nil, 0, core.Metrics{}, err
	}
	defer env.Close()

	src, err := os.CreateTemp("", "zerocopy-src-*.dat")
	if err != nil {
		return nil, 0, core.Metrics{}, err
	}
	defer os.Remove(src.Name())
	defer src.Close()
	blob := make([]byte, size)
	rand.New(rand.NewSource(62)).Read(blob)
	if _, err := src.Write(blob); err != nil {
		return nil, 0, core.Metrics{}, err
	}

	client, err := env.newClient(core.Options{
		Strategy:        core.StrategyNone,
		VerifyTransfers: verify,
	})
	if err != nil {
		return nil, 0, core.Metrics{}, err
	}
	defer client.Close()

	ctx := context.Background()
	op := func() error {
		if _, err := src.Seek(0, io.SeekStart); err != nil {
			return err
		}
		return client.PutReader(ctx, env.addr, "/up", src, size)
	}
	if err := op(); err != nil {
		return nil, 0, core.Metrics{}, err
	}
	if repeats <= 0 {
		repeats = 1
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s := &Sample{}
	for rep := 0; rep < repeats; rep++ {
		timer := startTimer()
		if err := op(); err != nil {
			return nil, 0, core.Metrics{}, err
		}
		s.AddDuration(timer())
	}
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(repeats)
	return s, allocs, client.Metrics(), nil
}

// zcLANOverhead times the digest-on/off pair in the regime the ≤3%
// overhead budget is written for: a link-limited 1 Gb/s LAN (the netsim
// profile), where the inline hash overlaps with socket waits instead of
// competing for the same memory bandwidth as the copy loop (loopback TCP
// runs at memory speed, so there the hash is honestly compute-visible —
// that number is reported separately). Both clients share one testbed and
// their ops alternate, so environmental drift hits both samples alike; the
// returned samples are compared by Min, the netsim-shaped floor.
func zcLANOverhead(size int64, repeats int) (plain, verify *Sample, err error) {
	env, err := NewEnv(netsim.LAN(), httpserv.Options{})
	if err != nil {
		return nil, nil, err
	}
	defer env.Close()
	blob := make([]byte, size)
	rand.New(rand.NewSource(65)).Read(blob)
	if err := env.Store.Put(zcPath, blob); err != nil {
		return nil, nil, err
	}

	ctx := context.Background()
	newRunner := func(verify bool) (func() (float64, error), func(), error) {
		client, err := env.NewHTTPClient(core.Options{
			Strategy:        core.StrategyNone,
			ChunkSize:       zcChunk,
			MaxStreams:      zcStreams,
			VerifyTransfers: verify,
			Pool:            pool.Options{MaxPerHost: zcStreams},
		})
		if err != nil {
			return nil, nil, err
		}
		f, err := os.CreateTemp("", "zerocopy-lan-*.dat")
		if err != nil {
			client.Close()
			return nil, nil, err
		}
		op := func() (float64, error) {
			timer := startTimer()
			n, err := client.DownloadMultiStreamTo(ctx, HTTPAddr, zcPath, f)
			if err != nil {
				return 0, err
			}
			if n != size {
				return 0, fmt.Errorf("bench: zerocopy LAN download: %d bytes, want %d", n, size)
			}
			return timer().Seconds(), nil
		}
		cleanup := func() {
			f.Close()
			os.Remove(f.Name())
			client.Close()
		}
		return op, cleanup, nil
	}
	plainOp, plainDone, err := newRunner(false)
	if err != nil {
		return nil, nil, err
	}
	defer plainDone()
	verifyOp, verifyDone, err := newRunner(true)
	if err != nil {
		return nil, nil, err
	}
	defer verifyDone()

	// Warm both pools, then alternate measured ops pairwise.
	if _, err := plainOp(); err != nil {
		return nil, nil, err
	}
	if _, err := verifyOp(); err != nil {
		return nil, nil, err
	}
	if repeats <= 0 {
		repeats = 1
	}
	plain, verify = &Sample{}, &Sample{}
	for rep := 0; rep < repeats; rep++ {
		d, err := plainOp()
		if err != nil {
			return nil, nil, err
		}
		plain.Add(d)
		d, err = verifyOp()
		if err != nil {
			return nil, nil, err
		}
		verify.Add(d)
	}
	return plain, verify, nil
}

// zcThroughput renders a sample as MiB/s moved.
func zcThroughput(s *Sample, size int64) string {
	if s.Mean() == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f MiB/s", float64(size)/(1<<20)/s.Mean())
}

// Zerocopy measures the PR-7 byte plane: the streaming scatter download in
// its three byte-path modes (kernel splice, pooled, pooled with the inline
// digest), plus the sendfile-versus-teed upload pair. Runs over real
// loopback TCP — the one experiment where the kernel path can actually
// fire — and reports the client's own byte-path counters next to each
// timing so the JSON is self-proving about which path moved the bytes.
// Not in the paper: the
// paper's davix copies every payload byte through userspace; this
// quantifies what the zero-copy plane saves and what inline end-to-end
// integrity costs on top of it.
func Zerocopy(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	table := &Table{
		Title: "Zero-copy byte plane: kernel vs pooled, inline-digest overhead",
		Columns: []string{"direction", "byte path", "time/op", "throughput",
			"allocs/op", "kernel MiB", "pooled MiB", "verified"},
	}

	type dlRow struct {
		mode   string
		s      *Sample
		allocs float64
		m      core.Metrics
	}
	var rows []dlRow
	for _, mode := range []string{zcPooled, zcVerify, zcKernel} {
		s, allocs, m, err := zcDownload(mode, zcBenchSize, opts.Repeats)
		if err != nil {
			return nil, fmt.Errorf("bench: zerocopy %s: %w", mode, err)
		}
		rows = append(rows, dlRow{mode, s, allocs, m})
		table.AddRow("download", mode, formatDur(s), zcThroughput(s, zcBenchSize),
			fmtBytes(allocs),
			fmt.Sprintf("%.0f", float64(m.KernelBytesDown)/(1<<20)),
			fmt.Sprintf("%.0f", float64(m.PooledBytesDown)/(1<<20)),
			fmt.Sprintf("%d", m.TransfersVerified))
	}

	for _, verify := range []bool{false, true} {
		mode := "sendfile"
		if verify {
			mode = "teed+digest"
		}
		s, allocs, m, err := zcUpload(verify, zcBenchSize, opts.Repeats)
		if err != nil {
			return nil, fmt.Errorf("bench: zerocopy upload: %w", err)
		}
		table.AddRow("upload", mode, formatDur(s), zcThroughput(s, zcBenchSize),
			fmtBytes(allocs),
			fmt.Sprintf("%.0f", float64(m.KernelBytesUp)/(1<<20)),
			fmt.Sprintf("%.0f", float64(m.PooledBytesUp)/(1<<20)),
			fmt.Sprintf("%d", m.TransfersVerified))
	}

	// The LAN pair compares by Min, so it wants enough draws for both mins
	// to reach the netsim-shaped floor; the ops are cheap (link-limited,
	// not CPU-limited), so extra repeats cost little.
	lanPlain, lanVerify, err := zcLANOverhead(zcBenchSize, max(opts.Repeats*2, 6))
	if err != nil {
		return nil, fmt.Errorf("bench: zerocopy LAN: %w", err)
	}

	pooled, verify, kernel := rows[0], rows[1], rows[2]
	table.Notes = []string{
		fmt.Sprintf("%d MiB object, %d MiB chunks x %d streams, real loopback TCP (netsim pipes cannot splice)",
			zcBenchSize>>20, zcChunk>>20, zcStreams),
		fmt.Sprintf("inline digest wall overhead on the link-limited 1 Gb/s LAN profile: %s (budget: ≤3%% — the hash overlaps with socket waits; best-of-%d, alternated ops); at loopback memory speed the hash is compute-visible: %s time, %s allocs",
			Pct(lanPlain.Min(), lanVerify.Min()), lanPlain.N(),
			Pct(pooled.s.Min(), verify.s.Min()), Pct(pooled.allocs, verify.allocs)),
		fmt.Sprintf("verification-on streaming allocates %s/op: pooled 64 KiB buffers per stream, never in proportion to the object",
			fmtBytes(verify.allocs)),
		fmt.Sprintf("kernel path moved %.0f%% of download payload without touching userspace",
			100*float64(kernel.m.KernelBytesDown)/float64(kernel.m.KernelBytesDown+kernel.m.PooledBytesDown)),
		"byte-path counters are cumulative over warm-up + measured ops; they prove which path ran, not per-op totals",
	}
	return table, nil
}
