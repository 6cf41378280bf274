package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"godavix/internal/core"
	"godavix/internal/httpserv"
	"godavix/internal/netsim"
	"godavix/internal/pool"
	"godavix/internal/storage"
	"godavix/internal/xrootd"
)

// WindowAblation sweeps the TreeCache window size for the WAN analysis
// job: smaller windows mean more vectored fills, each paying one round
// trip on the synchronous davix path (DESIGN.md §5).
func WindowAblation(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	table := &Table{
		Title:   "Ablation: TreeCache window size (WAN, davix/HTTP sync)",
		Columns: []string{"window (events)", "fills", "time"},
		Notes:   []string{"smaller windows = more round trips for the synchronous HTTP path"},
	}
	env, err := NewEnv(netsim.WAN(), httpserv.Options{})
	if err != nil {
		return nil, err
	}
	defer env.Close()
	if _, err := env.InstallDataset(DatasetPath, opts.Spec); err != nil {
		return nil, err
	}
	for _, window := range []uint64{750, 1500, 3000, 6000} {
		s := &Sample{}
		var fills int64
		o := opts
		o.Window = window
		for rep := 0; rep < opts.Repeats; rep++ {
			res, err := runHTTPAnalysis(env, o, 1.0)
			if err != nil {
				return nil, err
			}
			s.AddDuration(res.Duration)
			fills = res.Fills
		}
		table.AddRow(fmt.Sprint(window), fmt.Sprint(fills), Seconds(s))
	}
	return table, nil
}

// PoolSizeAblation measures the paper's "pool size proportional to the
// level of concurrency" choice: N concurrent GETs through pools capped at
// 1, 4 and unlimited connections (DESIGN.md §5).
func PoolSizeAblation(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	const (
		concurrency = 16
		requests    = 64
		objSize     = 32 << 10
	)
	table := &Table{
		Title:   "Ablation: pool size vs concurrency (16 workers, 64 GETs, PAN)",
		Columns: []string{"MaxPerHost", "time", "dials"},
		Notes:   []string{"cap 0 = grow with concurrency (the paper's design)"},
	}
	for _, cap := range []int{1, 4, 0} {
		env, err := NewEnv(netsim.PAN(), httpserv.Options{})
		if err != nil {
			return nil, err
		}
		env.Store.Put("/obj", make([]byte, objSize))
		client, err := env.NewHTTPClient(core.Options{
			Strategy: core.StrategyNone,
			Pool:     pool.Options{MaxPerHost: cap},
		})
		if err != nil {
			env.Close()
			return nil, err
		}
		ctx := context.Background()

		s := &Sample{}
		for rep := 0; rep < opts.Repeats; rep++ {
			timer := startTimer()
			var wg sync.WaitGroup
			errs := make(chan error, concurrency)
			work := make(chan int, requests)
			for i := 0; i < requests; i++ {
				work <- i
			}
			close(work)
			for w := 0; w < concurrency; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range work {
						if _, err := client.Get(ctx, HTTPAddr, "/obj"); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			select {
			case err := <-errs:
				client.Close()
				env.Close()
				return nil, err
			default:
			}
			s.AddDuration(timer())
		}
		capLabel := fmt.Sprint(cap)
		if cap == 0 {
			capLabel = "unlimited"
		}
		table.AddRow(capLabel, Seconds(s), fmt.Sprint(env.Net.Dials()))
		client.Close()
		env.Close()
	}
	return table, nil
}

// PrefetchAblation runs the WAN analysis over xrootd with and without the
// asynchronous sliding-window prefetch, isolating the mechanism the paper
// credits for XRootD's WAN advantage (DESIGN.md §5).
func PrefetchAblation(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	// Use a small window so the job has many fills: prefetch hides one
	// round trip + transfer per fill, which is invisible with 1-2 fills.
	opts.Window = eightFillWindow(opts.Spec)
	table := &Table{
		Title:   "Ablation: xrootd sliding-window prefetch on/off (WAN)",
		Columns: []string{"prefetch", "fills", "time"},
		Notes:   []string{"without prefetch the xrootd path serializes exactly like sync HTTP"},
	}
	env, err := NewEnv(netsim.WAN(), httpserv.Options{})
	if err != nil {
		return nil, err
	}
	defer env.Close()
	if _, err := env.InstallDataset(DatasetPath, opts.Spec); err != nil {
		return nil, err
	}
	ctx := context.Background()

	for _, prefetch := range []bool{true, false} {
		s := &Sample{}
		var fills int64
		for rep := 0; rep < opts.Repeats; rep++ {
			client := env.NewXrdClient()
			f, err := env.OpenXrd(ctx, client, DatasetPath)
			if err != nil {
				client.Close()
				return nil, err
			}
			src := XrdSource(ctx, f)
			if !prefetch {
				src.ReadVecAsyncCtx = nil // demand paging only
			}
			res, err := RunAnalysis(src, 1.0, opts.Window, nil)
			client.Close()
			if err != nil {
				return nil, err
			}
			s.AddDuration(res.Duration)
			fills = res.Fills
		}
		table.AddRow(fmt.Sprint(prefetch), fmt.Sprint(fills), Seconds(s))
	}
	return table, nil
}

// FederationCompare contrasts the two resilience designs of §2.4: the
// XRootD hierarchical federation (manager redirects the client to a live
// replica) versus davix's Metalink failover, measuring read latency with
// a healthy primary and after killing it.
func FederationCompare(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	const blobSize = 128 << 10
	table := &Table{
		Title:   "§2.4: xrootd federation vs davix Metalink failover (PAN)",
		Columns: []string{"mechanism", "healthy read", "read after primary death"},
	}
	blob := make([]byte, blobSize)

	// --- xrootd federation ---
	{
		n := netsim.New(netsim.PAN())
		servers := []string{"ds1:1094", "ds2:1094"}
		for _, addr := range servers {
			st := storage.NewMemStore()
			st.Put("/f", blob)
			srv := xrootd.NewServer(st)
			l, err := n.Listen(addr)
			if err != nil {
				return nil, err
			}
			defer l.Close()
			go srv.Serve(l)
		}
		mgr := xrootd.NewManager(n, servers, 10*time.Millisecond)
		ml, err := n.Listen("mgr:1094")
		if err != nil {
			return nil, err
		}
		defer ml.Close()
		go mgr.Serve(ml)

		cl := xrootd.NewCluster(n, "mgr:1094")
		defer cl.Close()
		ctx := context.Background()
		f, err := cl.Open(ctx, "/f")
		if err != nil {
			return nil, err
		}

		healthy := &Sample{}
		buf := make([]byte, 4096)
		for rep := 0; rep < opts.Repeats; rep++ {
			timer := startTimer()
			if _, err := f.ReadAt(ctx, buf, int64(rep)*4096); err != nil {
				return nil, err
			}
			healthy.AddDuration(timer())
		}
		n.SetDown("ds1:1094", true)
		time.Sleep(15 * time.Millisecond)
		timer := startTimer()
		if _, err := f.ReadAt(ctx, buf, 0); err != nil {
			return nil, fmt.Errorf("xrootd federation failover: %w", err)
		}
		table.AddRow("xrootd federation", Millis(healthy), fmt.Sprintf("%.1fms", timer().Seconds()*1000))
	}

	// --- davix metalink ---
	{
		env, err := newFedEnv(netsim.PAN(), 2, blob, "/f")
		if err != nil {
			return nil, err
		}
		defer env.Close()
		client, err := core.NewClient(core.Options{
			Dialer:       env.net,
			Strategy:     core.StrategyFailover,
			MetalinkHost: FedAddr,
		})
		if err != nil {
			return nil, err
		}
		defer client.Close()
		ctx := context.Background()
		f, err := client.Open(ctx, env.replicas[0], "/f")
		if err != nil {
			return nil, err
		}

		healthy := &Sample{}
		buf := make([]byte, 4096)
		for rep := 0; rep < opts.Repeats; rep++ {
			timer := startTimer()
			if _, err := f.ReadAt(buf, int64(rep)*4096); err != nil {
				return nil, err
			}
			healthy.AddDuration(timer())
		}
		env.net.SetDown(env.replicas[0], true)
		time.Sleep(15 * time.Millisecond)
		timer := startTimer()
		if _, err := f.ReadAt(buf, 0); err != nil {
			return nil, fmt.Errorf("metalink failover: %w", err)
		}
		table.AddRow("davix metalink", Millis(healthy), fmt.Sprintf("%.1fms", timer().Seconds()*1000))
	}
	return table, nil
}
