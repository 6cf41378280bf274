package bench

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strings"

	"godavix/internal/core"
	"godavix/internal/httpserv"
	"godavix/internal/netsim"
	"godavix/internal/pool"
	"godavix/internal/webdav"
)

// meta-benchmark geometry: a deep synthetic catalog (the paper's HPC
// namespace workload) wide enough that the serial walk's one-PROPFIND-per-
// directory round trips dominate, plus a single flat 10k-entry collection
// for the decoder allocation count.
const (
	metaDepth    = 3 // directory levels below the root
	metaDirsPer  = 4 // subdirectories per directory: 1+4+16+64 = 85 dirs
	metaFilesPer = 3 // files per directory
	metaConns    = 8 // MaxPerHost = WalkParallelism for the parallel client
	metaRoot     = "/catalog"
	metaFlatN    = 10000 // entries in the decoder-allocation collection
)

// buildMetaTree installs the deep synthetic namespace on the env's store
// and returns the total entry count including the root.
func buildMetaTree(env *Env) (int, error) {
	n := 1
	var grow func(prefix string, depth int) error
	grow = func(prefix string, depth int) error {
		for i := 0; i < metaFilesPer; i++ {
			if err := env.Store.Put(fmt.Sprintf("%s/f%02d.rnt", prefix, i), []byte("x")); err != nil {
				return err
			}
			n++
		}
		if depth == 0 {
			return nil
		}
		for i := 0; i < metaDirsPer; i++ {
			sub := fmt.Sprintf("%s/d%02d", prefix, i)
			if err := env.Store.Mkdir(sub); err != nil {
				return err
			}
			n++
			if err := grow(sub, depth-1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := env.Store.Mkdir(metaRoot); err != nil {
		return 0, err
	}
	return n, grow(metaRoot, metaDepth)
}

// runMetaWalk times `repeats` full walks of the deep tree with the given
// WalkParallelism on a fresh testbed, after one untimed warm-up walk that
// pays the dials and slow start. It returns the timing sample and the
// emission order of the last walk (one path per line) so callers can
// assert order identity across parallelism levels.
func runMetaWalk(prof netsim.Profile, parallelism, repeats int) (*Sample, string, error) {
	env, err := NewEnv(prof, httpserv.Options{})
	if err != nil {
		return nil, "", err
	}
	defer env.Close()
	if _, err := buildMetaTree(env); err != nil {
		return nil, "", err
	}
	client, err := env.NewHTTPClient(core.Options{
		Strategy:        core.StrategyNone,
		WalkParallelism: parallelism,
		Pool:            pool.Options{MaxPerHost: metaConns},
	})
	if err != nil {
		return nil, "", err
	}
	defer client.Close()

	ctx := context.Background()
	var order strings.Builder
	walk := func(record bool) error {
		order.Reset()
		return client.Walk(ctx, HTTPAddr, metaRoot, func(inf core.Info) error {
			if record {
				order.WriteString(inf.Path)
				order.WriteByte('\n')
			}
			return nil
		})
	}
	if err := walk(false); err != nil {
		return nil, "", err
	}
	s := &Sample{}
	for rep := 0; rep < repeats; rep++ {
		timer := startTimer()
		if err := walk(rep == repeats-1); err != nil {
			return nil, "", err
		}
		s.AddDuration(timer())
	}
	return s, order.String(), nil
}

// metaPropfindResponse renders the canned 207 multistatus a server would
// send for a flat n-entry collection as one replayable byte blob.
func metaPropfindResponse(n int) ([]byte, error) {
	entries := make([]webdav.Entry, 0, n+1)
	entries = append(entries, webdav.Entry{Href: "/flat", Dir: true})
	for i := 0; i < n; i++ {
		entries = append(entries, webdav.Entry{Href: fmt.Sprintf("/flat/f%05d.rnt", i), Size: int64(i)})
	}
	body, err := webdav.EncodeMultistatus(entries)
	if err != nil {
		return nil, err
	}
	head := fmt.Sprintf("HTTP/1.1 207 Multi-Status\r\n"+
		"Content-Type: %s\r\n"+
		"Content-Length: %d\r\n\r\n", webdav.ContentType, len(body))
	return append([]byte(head), body...), nil
}

// metaDecodeAllocs measures client-side allocations per List of a 10k-entry
// collection against a canned-response replay connection.
func metaDecodeAllocs(repeats int) (float64, error) {
	resp, err := metaPropfindResponse(metaFlatN)
	if err != nil {
		return 0, err
	}
	client, err := core.NewClient(core.Options{
		Dialer: pool.DialerFunc(func(ctx context.Context, addr string) (net.Conn, error) {
			return &replayConn{resp: resp}, nil
		}),
		Strategy: core.StrategyNone,
	})
	if err != nil {
		return 0, err
	}
	defer client.Close()

	ctx := context.Background()
	for i := 0; i < 3; i++ { // warm the conn and the pools
		if _, err := client.List(ctx, "replay:80", "/flat"); err != nil {
			return 0, err
		}
	}
	if repeats <= 0 {
		repeats = 1
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < repeats; i++ {
		if _, err := client.List(ctx, "replay:80", "/flat"); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(repeats), nil
}

// Meta measures the PR-3 parallel namespace engine: serial versus
// concurrent deep-tree walks on the LAN and WAN profiles, plus the
// multistatus decoder's allocations per 10k-entry listing. Not in the
// paper — the paper's davix walks catalogs serially; this quantifies what
// the §2.2 dynamic pool buys when the metadata path is allowed to use all
// of it at once. Order identity between the serial and parallel walks is
// asserted, not assumed.
func Meta(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	nDirs := 0
	for d, w := 0, 1; d <= metaDepth; d++ {
		nDirs += w
		w *= metaDirsPer
	}
	table := &Table{
		Title: "Parallel namespace walk: serial vs concurrent PROPFIND",
		Columns: []string{"link", "serial walk", fmt.Sprintf("parallel(%d conns)", metaConns),
			"speedup", "decode allocs/op"},
		Notes: []string{
			fmt.Sprintf("tree: %d collections x %d files (depth %d); decode allocs: one List of a %d-entry collection",
				nDirs, metaFilesPer, metaDepth, metaFlatN),
			"warm connections (one untimed walk first); allocs measured client-side on a canned-response replay conn",
			"parallel emission order verified byte-identical to the serial walk",
		},
	}

	decodeAllocs, err := metaDecodeAllocs(opts.Repeats * 2)
	if err != nil {
		return nil, err
	}

	for _, prof := range []netsim.Profile{netsim.LAN(), netsim.WAN()} {
		serial, serialOrder, err := runMetaWalk(prof, 1, opts.Repeats)
		if err != nil {
			return nil, err
		}
		parallel, parallelOrder, err := runMetaWalk(prof, metaConns, opts.Repeats)
		if err != nil {
			return nil, err
		}
		if serialOrder != parallelOrder {
			return nil, fmt.Errorf("bench: %s parallel walk order diverged from serial", prof.Name)
		}
		table.AddRow(
			prof.Name,
			formatDur(serial),
			formatDur(parallel),
			fmt.Sprintf("%.2fx", serial.Mean()/parallel.Mean()),
			fmt.Sprintf("%.0f", decodeAllocs),
		)
	}
	return table, nil
}
