package main

import (
	"context"
	"fmt"
	"net"

	davix "godavix"
	"godavix/internal/httpserv"
	"godavix/internal/netsim"
	"godavix/internal/pool"
	"godavix/internal/storage"
)

// maxConns is the most client connections any workload may hold: the box
// the baseline was taken on has two cores, and a closed loop wider than
// the core count measures the scheduler.
const maxConns = 2

// scale sizes every workload. full is what BENCHMARK.json's numbers are
// measured at; smoke exists so `go test` can run every workload and the
// traced round in a few seconds.
type scale struct {
	events       int    // analysis: events in the dataset
	trainEvents  uint64 // analysis: TrainingCache learning phase
	window       uint64 // analysis: TreeCache window, in events
	computeSteps int    // analysis: FNV steps of compute per event
	bulkBytes    int64  // bulk_*: object size
	chunkBytes   int64  // bulk_*: multi-stream chunk size
	walkTop      int    // meta_walk: collections under the root
	walkMid      int    // meta_walk: leaf collections per top collection
	walkFiles    int    // meta_walk: files per leaf collection
	smallObjects int    // smallops: objects, a multiple of 4 (one size class each)
	smallOps     int    // smallops: requests per worker per iteration, a multiple of 20
	rounds       int    // interleaved measurement rounds
	minIters     int    // iterations per workload per round, at least
}

var (
	fullScale = scale{
		events: 12000, trainEvents: 100, window: 256, computeSteps: 2000,
		bulkBytes: 64 << 20, chunkBytes: 8 << 20,
		walkTop: 4, walkMid: 8, walkFiles: 400,
		smallObjects: 512, smallOps: 1280,
		rounds: 5, minIters: 3,
	}
	smokeScale = scale{
		events: 1024, trainEvents: 100, window: 256, computeSteps: 200,
		bulkBytes: 2 << 20, chunkBytes: 256 << 10,
		walkTop: 2, walkMid: 2, walkFiles: 20,
		smallObjects: 32, smallOps: 40,
		rounds: 1, minIters: 1,
	}
)

// testbed is one storage node and the counted way to reach it: an
// in-process httpserv over a MemStore, listening either on the simulated
// fabric (prof != nil) or on real loopback TCP.
type testbed struct {
	store  *storage.MemStore
	srv    *httpserv.Server
	dialer *countingDialer
	base   string // "http://host:port"

	l      net.Listener
	served chan error
}

const simAddr = "dpm1:80"

var tcpDialer = pool.DialerFunc(func(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
})

func newTestbed(prof *netsim.Profile) (*testbed, error) {
	b := &testbed{store: storage.NewMemStore(), served: make(chan error, 1)}
	// The admission layer is on, as on a production gateway, with a limit
	// no workload comes near: its fast path is part of every request's
	// cost, and a shed would be a failed op.
	b.srv = httpserv.New(b.store, httpserv.Options{Limits: httpserv.Limits{MaxInFlight: 64}})
	var err error
	if prof != nil {
		fabric := netsim.New(*prof)
		b.l, err = fabric.Listen(simAddr)
		b.dialer = newCountingDialer(fabric)
		b.base = "http://" + simAddr
	} else {
		b.l, err = net.Listen("tcp", "127.0.0.1:0")
		b.dialer = newCountingDialer(tcpDialer)
		if err == nil {
			b.base = "http://" + b.l.Addr().String()
		}
	}
	if err != nil {
		b.srv.Close()
		return nil, fmt.Errorf("testbed listen: %w", err)
	}
	go func() { b.served <- b.srv.Serve(b.l) }()
	return b, nil
}

// client builds a davix client on the testbed. Every workload runs with
// at most maxConns connections, no Metalink processing and no cache: what
// differs between workloads is passed in opts.
func (b *testbed) client(opts davix.Options) (*davix.Client, error) {
	opts.Dialer = b.dialer
	opts.MaxPerHost = maxConns
	opts.Strategy = davix.StrategyNone
	return davix.New(opts)
}

// close stops the server and waits for its accept loop to end. Clients
// must be closed first: the server's connection goroutines end when their
// peers hang up.
func (b *testbed) close() {
	b.l.Close()
	b.srv.Close()
	<-b.served
}

// shedTotal reads the gateway's shed counter; the workloads expect 0.
func (b *testbed) shedTotal() float64 {
	for _, c := range b.srv.Snapshot().Counters {
		if c.Name == "shed_total" {
			return float64(c.Value)
		}
	}
	return 0
}
