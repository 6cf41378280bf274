package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"godavix/internal/core"
	"godavix/internal/httpserv"
	"godavix/internal/metalink"
	"godavix/internal/netsim"
	"godavix/internal/rangev"
	"godavix/internal/storage"
)

// resil-benchmark geometry: enough chunks that the per-chunk cost of a
// sick replica dominates once, and a multi-batch vector-read shape for the
// healthy-path baseline.
const (
	resilSize  = 2 << 20   // 2 MiB object
	resilChunk = 128 << 10 // 128 KiB chunks -> 16 chunks
	resilPath  = "/store/resil.dat"
	// resilDelay is the sick replica's per-request latency: the timeout a
	// dead-but-dialable disk node costs every chunk that still asks it.
	resilDelay = 5 * time.Millisecond
)

// resilReplicas are the three storage nodes of the failover testbed.
var resilReplicas = []string{"dpm1:80", "dpm2:80", "dpm3:80"}

// resilTestbed builds three replicas of one object plus a federation
// endpoint on a fresh fabric. close tears everything down.
func resilTestbed(prof netsim.Profile, blob []byte) (n *netsim.Network, srvs map[string]*httpserv.Server, close func(), err error) {
	n = netsim.New(prof)
	srvs = map[string]*httpserv.Server{}
	var closers []func()
	close = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	listen := func(addr string, srv *httpserv.Server) error {
		l, lerr := n.Listen(addr)
		if lerr != nil {
			return lerr
		}
		closers = append(closers, func() { l.Close() })
		go srv.Serve(l)
		return nil
	}
	for _, addr := range resilReplicas {
		st := storage.NewMemStore()
		if err = st.Put(resilPath, blob); err != nil {
			close()
			return nil, nil, nil, err
		}
		srv := httpserv.New(st, httpserv.Options{})
		srvs[addr] = srv
		if err = listen(addr, srv); err != nil {
			close()
			return nil, nil, nil, err
		}
	}
	fed := httpserv.New(storage.NewMemStore(), httpserv.Options{
		Metalinks: func(p string) *metalink.Metalink {
			ml := &metalink.Metalink{Name: "resil", Size: int64(len(blob))}
			for i, r := range resilReplicas {
				ml.URLs = append(ml.URLs, metalink.URL{Loc: "http://" + r + p, Priority: i + 1})
			}
			return ml
		},
	})
	if err = listen(FedAddr, fed); err != nil {
		close()
		return nil, nil, nil, err
	}
	return n, srvs, close, nil
}

// resilClientOpts returns the client configuration with the resilience
// features on (retry budget + health scoreboard) or stripped back to the
// seed semantics (no retries, no scoreboard).
func resilClientOpts(n *netsim.Network, resilient bool) core.Options {
	opts := core.Options{
		Dialer:       n,
		MetalinkHost: FedAddr,
		ChunkSize:    resilChunk,
		MaxStreams:   4,
	}
	if resilient {
		opts.RetryPolicy = core.RetryPolicy{Attempts: 3}
		// Long cooldown: the demoted node stays demoted for the whole run.
		opts.HealthProbeAfter = 30 * time.Second
	} else {
		opts.RetryPolicy = core.RetryPolicy{Attempts: 1}
		opts.HealthThreshold = -1
	}
	return opts
}

// runDeadPrimary times repeated multi-stream downloads while the primary
// replica is sick (every request answered 503 after resilDelay). With the
// scoreboard the primary is demoted after a handful of failures and later
// chunks skip it outright; without it every chunk whose ring starts at the
// primary pays the delay, every download, forever.
func runDeadPrimary(withHealth bool, repeats int) (*Sample, core.Metrics, error) {
	blob := make([]byte, resilSize)
	rand.New(rand.NewSource(61)).Read(blob)
	n, srvs, closeBed, err := resilTestbed(netsim.LAN(), blob)
	if err != nil {
		return nil, core.Metrics{}, err
	}
	defer closeBed()
	srvs["dpm1:80"].SetFault(resilPath, httpserv.Fault{Status: 503, Delay: resilDelay})

	// Toggle only the scoreboard (no retry budget on either side) so the
	// row isolates what the breaker itself buys.
	opts := resilClientOpts(n, withHealth)
	opts.RetryPolicy = core.RetryPolicy{Attempts: 1}
	client, err := core.NewClient(opts)
	if err != nil {
		return nil, core.Metrics{}, err
	}
	defer client.Close()

	ctx := context.Background()
	download := func() error {
		got, err := client.DownloadMultiStream(ctx, "dpm1:80", resilPath)
		if err != nil {
			return err
		}
		if len(got) != len(blob) {
			return fmt.Errorf("bench: resil download: %d bytes, want %d", len(got), len(blob))
		}
		return nil
	}
	// One untimed warm-up pays the dials (and, with the scoreboard on,
	// trips the breaker — the steady state being measured).
	if err := download(); err != nil {
		return nil, core.Metrics{}, err
	}
	s := &Sample{}
	for rep := 0; rep < repeats; rep++ {
		timer := startTimer()
		if err := download(); err != nil {
			return nil, core.Metrics{}, err
		}
		s.AddDuration(timer())
	}
	return s, client.Metrics(), nil
}

// runHealthyPath times the two PR 2-4 baseline workloads — a parallel
// vectored read and a multi-stream download — on an all-healthy testbed,
// with the resilience features on versus stripped. The delta is the pure
// bookkeeping cost of the engine layers when nothing fails.
func runHealthyPath(resilient bool, repeats int) (vec, ms *Sample, err error) {
	blob := make([]byte, resilSize)
	rand.New(rand.NewSource(62)).Read(blob)
	n, _, closeBed, err := resilTestbed(netsim.LAN(), blob)
	if err != nil {
		return nil, nil, err
	}
	defer closeBed()
	client, err := core.NewClient(resilClientOpts(n, resilient))
	if err != nil {
		return nil, nil, err
	}
	defer client.Close()
	ctx := context.Background()

	const k = 64
	rng := rand.New(rand.NewSource(63))
	ranges := make([]rangev.Range, k)
	dsts := make([][]byte, k)
	for i := range ranges {
		ranges[i] = rangev.Range{Off: rng.Int63n(resilSize - 512), Len: 512}
		dsts[i] = make([]byte, 512)
	}
	readVec := func() error { return client.ReadVec(ctx, "dpm1:80", resilPath, ranges, dsts) }
	download := func() error {
		_, err := client.DownloadMultiStream(ctx, "dpm1:80", resilPath)
		return err
	}
	if err := readVec(); err != nil {
		return nil, nil, err
	}
	if err := download(); err != nil {
		return nil, nil, err
	}
	// Each sample amortizes several operations: the per-op engine cost is
	// microseconds, and single-op timings on a parallel workload are
	// dominated by goroutine scheduling noise.
	const perSample = 3
	vec, ms = &Sample{}, &Sample{}
	for rep := 0; rep < repeats*2; rep++ {
		timer := startTimer()
		for i := 0; i < perSample; i++ {
			if err := readVec(); err != nil {
				return nil, nil, err
			}
		}
		vec.Add(timer().Seconds() / perSample)
		timer = startTimer()
		for i := 0; i < perSample; i++ {
			if err := download(); err != nil {
				return nil, nil, err
			}
		}
		ms.Add(timer().Seconds() / perSample)
	}
	return vec, ms, nil
}

// Resil measures the PR-5 resilience engine: what the per-host health
// scoreboard saves when a replica goes dark mid-fleet (dead-primary
// recovery wall-clock, breaker on vs off) and what the engine layers cost
// on the healthy path versus the stripped seed semantics (target: <= 5%
// on a multi-batch vectored read and a multi-stream transfer).
func Resil(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	table := &Table{
		Title:   "Resilience engine: dead-primary recovery and healthy-path overhead",
		Columns: []string{"scenario", "engine off", "engine on", "on vs off"},
	}

	offDead, _, err := runDeadPrimary(false, opts.Repeats)
	if err != nil {
		return nil, err
	}
	onDead, m, err := runDeadPrimary(true, opts.Repeats)
	if err != nil {
		return nil, err
	}
	table.AddRow("dead-primary recovery (LAN, 16 chunks)",
		formatDur(offDead), formatDur(onDead),
		fmt.Sprintf("%.2fx faster", offDead.Mean()/onDead.Mean()))

	offVec, offMS, err := runHealthyPath(false, opts.Repeats)
	if err != nil {
		return nil, err
	}
	onVec, onMS, err := runHealthyPath(true, opts.Repeats)
	if err != nil {
		return nil, err
	}
	table.AddRow("healthy vectored read (64 ranges)",
		formatDur(offVec), formatDur(onVec), Pct(offVec.Mean(), onVec.Mean()))
	table.AddRow("healthy multi-stream download",
		formatDur(offMS), formatDur(onMS), Pct(offMS.Mean(), onMS.Mean()))

	table.Notes = []string{
		fmt.Sprintf("sick primary answers 503 after %v; scoreboard demotes it after %d consecutive failures, later chunks skip it",
			resilDelay, 3),
		fmt.Sprintf("engine-on client metrics for the dead-primary run: requests=%d retries=%d failovers=%d breaker_trips=%d bytes_down=%d",
			m.Requests, m.Retries, m.Failovers, m.BreakerTrips, m.BytesDown),
		"healthy-path rows measure pure engine bookkeeping (retry budget armed, scoreboard on, nothing failing); target <= +5%",
	}
	return table, nil
}
