// Benchmarks regenerating the paper's evaluation. Run with:
//
//	go test -bench=. -benchmem
//
// Figures 1–3 are reproduced here only:
//
//	go test -bench 'Fig[123]' -run '^$' .
//
// Figure 4 is held as counts by internal/xrootd's TestHTTPXrootdParity
// and timed by the committed benchmark's analysis workloads.
package davix

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"godavix/internal/core"
	"godavix/internal/faults"
	"godavix/internal/httpserv"
	"godavix/internal/metalink"
	"godavix/internal/netsim"
	"godavix/internal/pool"
	"godavix/internal/rangev"
	"godavix/internal/rootio"
	"godavix/internal/storage"
	"godavix/internal/wire"
	"godavix/internal/xrootd"
)

// BenchmarkFig1Pipelining measures the head-of-line blocking of Figure 1:
// a slow request followed by fast ones, under strict pipelining versus the
// davix pooled dispatch.
func BenchmarkFig1Pipelining(b *testing.B) {
	const nFast = 8
	slow := 10 * time.Millisecond
	setup := func(b *testing.B) *benchBed {
		bed := newBenchBed(b, httpserv.Options{})
		payload := make([]byte, 1024)
		bed.store.Put("/slow", payload)
		for i := 0; i < nFast; i++ {
			bed.store.Put(fmt.Sprintf("/obj%d", i), payload)
		}
		bed.faults.Set("/slow", faults.Fault{Delay: slow})
		return bed
	}

	b.Run("pipelined", func(b *testing.B) {
		bed := setup(b)
		for i := 0; i < b.N; i++ {
			conn, err := bed.net.Dial(benchHTTPAddr)
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range append([]string{"/slow"}, objPaths(nFast)...) {
				if err := wire.NewRequest("GET", benchHTTPAddr, p).Write(conn); err != nil {
					b.Fatal(err)
				}
			}
			br := bufio.NewReader(conn)
			for j := 0; j < nFast+1; j++ {
				resp, err := wire.ReadResponse(br, "GET")
				if err != nil {
					b.Fatal(err)
				}
				resp.Discard()
			}
			conn.Close()
		}
	})
	b.Run("pooled", func(b *testing.B) {
		client := setup(b).client(b)
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			done := make(chan error, nFast+1)
			go func() {
				_, err := client.Get(ctx, benchHTTPAddr, "/slow")
				done <- err
			}()
			for _, p := range objPaths(nFast) {
				go func(p string) {
					_, err := client.Get(ctx, benchHTTPAddr, p)
					done <- err
				}(p)
			}
			for j := 0; j < nFast+1; j++ {
				if err := <-done; err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func objPaths(n int) []string {
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("/obj%d", i)
	}
	return paths
}

// BenchmarkFig2SessionRecycling measures Figure 2: sequential requests on
// a recycled KeepAlive session versus a fresh connection per request.
func BenchmarkFig2SessionRecycling(b *testing.B) {
	for _, mode := range []struct {
		name      string
		keepAlive bool
	}{{"recycled", true}, {"per-request", false}} {
		b.Run(mode.name, func(b *testing.B) {
			bed := newBenchBed(b, httpserv.Options{DisableKeepAlive: !mode.keepAlive})
			bed.store.Put("/obj", make([]byte, 16<<10))
			client := bed.client(b)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Get(ctx, benchHTTPAddr, "/obj"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3VectoredIO measures Figure 3: K scattered fragment reads as
// individual ranged GETs, one davix multi-range request, and one xrootd
// readv.
func BenchmarkFig3VectoredIO(b *testing.B) {
	blob := make([]byte, 4<<20)
	rand.New(rand.NewSource(1)).Read(blob)
	for _, k := range []int{16, 128} {
		bed := newBenchBed(b, httpserv.Options{})
		bed.store.Put("/blob", blob)
		ranges := make([]rangev.Range, k)
		dsts := make([][]byte, k)
		rng := rand.New(rand.NewSource(int64(k)))
		for i := range ranges {
			ranges[i] = rangev.Range{Off: rng.Int63n(int64(len(blob) - 256)), Len: 256}
			dsts[i] = make([]byte, 256)
		}
		ctx := context.Background()

		b.Run(fmt.Sprintf("individual/K=%d", k), func(b *testing.B) {
			client := bed.client(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, r := range ranges {
					if _, err := client.GetRange(ctx, benchHTTPAddr, "/blob", r.Off, r.Len); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("vectored/K=%d", k), func(b *testing.B) {
			client := bed.client(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := client.ReadVec(ctx, benchHTTPAddr, "/blob", ranges, dsts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("xrootd-readv/K=%d", k), func(b *testing.B) {
			client := xrootd.NewClient(bed.net, benchXrdAddr)
			defer client.Close()
			f, err := client.Open(ctx, "/blob")
			if err != nil {
				b.Fatal(err)
			}
			chunks := make([]xrootd.Chunk, len(ranges))
			for i, r := range ranges {
				chunks[i] = xrootd.Chunk{Offset: r.Off, Length: int32(r.Len)}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.ReadV(ctx, chunks, dsts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMetalinkFailover measures the §2.4 failover cost: reads with a
// healthy primary versus reads that must fail over to a second replica.
func BenchmarkMetalinkFailover(b *testing.B) {
	run := func(b *testing.B, killPrimary bool) {
		n := netsim.New(netsim.PAN())
		blob := make([]byte, 64<<10)
		for _, addr := range []string{"dpm1:80", "dpm2:80"} {
			st := newStoreWith(b, "/f", blob)
			srv := httpserv.New(st, httpserv.Options{})
			l, err := n.Listen(addr)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			go srv.Serve(l)
		}
		fedSrv := httpserv.New(newStoreWith(b, "/unused", nil), httpserv.Options{
			Metalinks: staticMetalink(int64(len(blob))),
		})
		fl, err := n.Listen("fed:80")
		if err != nil {
			b.Fatal(err)
		}
		defer fl.Close()
		go fedSrv.Serve(fl)

		if killPrimary {
			n.SetDown("dpm1:80", true)
		}
		client, err := New(Options{Dialer: n, Strategy: StrategyFailover, MetalinkHost: "fed:80"})
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.GetRange(ctx, "http://dpm1:80/f", 0, 4096); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("healthy-primary", func(b *testing.B) { run(b, false) })
	b.Run("primary-dead", func(b *testing.B) { run(b, true) })
}

// BenchmarkMultiStream measures the §2.4 multi-stream download against a
// single-stream GET of the same object across 3 replicas.
func BenchmarkMultiStream(b *testing.B) {
	blob := make([]byte, 4<<20)
	rand.New(rand.NewSource(2)).Read(blob)
	n := netsim.New(netsim.PAN())
	replicas := []string{"dpm1:80", "dpm2:80", "dpm3:80"}
	for _, addr := range replicas {
		st := newStoreWith(b, "/big", blob)
		srv := httpserv.New(st, httpserv.Options{})
		l, err := n.Listen(addr)
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		go srv.Serve(l)
	}
	fedSrv := httpserv.New(newStoreWith(b, "/unused", nil), httpserv.Options{
		Metalinks: staticMetalink(int64(len(blob))),
	})
	fl, err := n.Listen("fed:80")
	if err != nil {
		b.Fatal(err)
	}
	defer fl.Close()
	go fedSrv.Serve(fl)

	client, err := New(Options{
		Dialer: n, MetalinkHost: "fed:80", MaxPerHost: 1, ChunkSize: 512 << 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()

	b.Run("single-stream", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			if _, err := client.Get(ctx, "http://dpm1:80/big"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("multi-stream", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			if _, err := client.DownloadMultiStream(ctx, "http://dpm1:80/big"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkUploadMultiStream measures the write-side twin over loopback TCP
// against an in-process gateway: a verified 64 MiB upload in 8 MiB chunks on
// 2 streams, the shape of the committed benchmark's bulk_put_tcp. Each byte
// should be hashed once on each side and allocated once, by the gateway.
func BenchmarkUploadMultiStream(b *testing.B) {
	blob := make([]byte, 64<<20)
	rand.New(rand.NewSource(4)).Read(blob)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go httpserv.New(storage.NewMemStore(), httpserv.Options{}).Serve(l)

	client, err := New(Options{ChunkSize: 8 << 20, MaxPerHost: 2, VerifyTransfers: true})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	url := "http://" + l.Addr().String() + "/up"

	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.UploadMultiStream(context.Background(), url, bytes.NewReader(blob), int64(len(blob))); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the core building blocks ---

// BenchmarkRangeCoalesce measures the data-sieving pass.
func BenchmarkRangeCoalesce(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	ranges := make([]rangev.Range, 1024)
	for i := range ranges {
		ranges[i] = rangev.Range{Off: rng.Int63n(1 << 30), Len: rng.Int63n(4096) + 1}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rangev.Coalesce(ranges, 4096)
	}
}

// BenchmarkWireResponseParse measures HTTP response header+body parsing.
func BenchmarkWireResponseParse(b *testing.B) {
	raw := "HTTP/1.1 206 Partial Content\r\nContent-Length: 4096\r\n" +
		"Content-Range: bytes 0-4095/1048576\r\nContent-Type: application/octet-stream\r\n\r\n" +
		strings.Repeat("x", 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := wire.ReadResponse(bufio.NewReader(strings.NewReader(raw)), "GET")
		if err != nil {
			b.Fatal(err)
		}
		resp.Discard()
	}
}

// BenchmarkRNTWriteRead measures the event file format end to end.
func BenchmarkRNTWriteRead(b *testing.B) {
	spec := rootio.SynthSpec{Events: 500, Branches: 4, MeanPayload: 64, Seed: 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		img, err := rootio.Synthesize(spec)
		if err != nil {
			b.Fatal(err)
		}
		r, err := rootio.OpenReader(rootio.BytesSource(img))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.ReadEvent(250, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// helpers

// Testbed addresses: one storage node serving one namespace over HTTP
// (DPM-like) and over the xrootd protocol.
const (
	benchHTTPAddr = "dpm1:80"
	benchXrdAddr  = "dpm1:1094"
)

// benchBed is the paper's testbed for the figure benchmarks: a netsim
// fabric on the PAN profile and one MemStore served over both protocols,
// the HTTP gateway behind a fault layer. Its listeners close when the
// benchmark run ends.
type benchBed struct {
	net    *netsim.Network
	store  *storage.MemStore
	faults *faults.Layer
}

func newBenchBed(b *testing.B, httpOpts httpserv.Options) *benchBed {
	b.Helper()
	bed := &benchBed{net: netsim.New(netsim.PAN()), store: storage.NewMemStore()}
	srv := httpserv.New(bed.store, httpOpts)
	bed.faults = faults.New(srv)
	listen := func(addr string) net.Listener {
		l, err := bed.net.Listen(addr)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { l.Close() })
		return l
	}
	go srv.ServeHandler(listen(benchHTTPAddr), bed.faults)
	go xrootd.NewServer(bed.store).Serve(listen(benchXrdAddr))
	return bed
}

// client returns a davix client on the fabric, without Metalink failover.
func (bed *benchBed) client(b *testing.B) *core.Client {
	b.Helper()
	c, err := core.NewClient(core.Options{Dialer: bed.net, Strategy: core.StrategyNone})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	return c
}

func newStoreWith(b *testing.B, path string, data []byte) *storage.MemStore {
	b.Helper()
	st := storage.NewMemStore()
	if data != nil {
		if err := st.Put(path, data); err != nil {
			b.Fatal(err)
		}
	}
	return st
}

func staticMetalink(size int64) httpserv.MetalinkProvider {
	return func(p string) *metalink.Metalink {
		return &metalink.Metalink{
			Name: "f", Size: size,
			URLs: []metalink.URL{
				{Loc: "http://dpm1:80" + p, Priority: 1},
				{Loc: "http://dpm2:80" + p, Priority: 2},
				{Loc: "http://dpm3:80" + p, Priority: 3},
			},
		}
	}
}

// BenchmarkPoolBorrowReturn measures the dispatch fast path: borrowing and
// returning a warm pooled connection.
func BenchmarkPoolBorrowReturn(b *testing.B) {
	n := netsim.New(netsim.Ideal())
	l, err := n.Listen("s:80")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	}()
	p := pool.New(n, pool.Options{})
	defer p.Close()
	ctx := context.Background()
	c, err := p.Get(ctx, "s:80")
	if err != nil {
		b.Fatal(err)
	}
	p.Put(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := p.Get(ctx, "s:80")
		if err != nil {
			b.Fatal(err)
		}
		p.Put(c)
	}
}

// BenchmarkTreeCacheScan measures a full in-memory TreeCache event scan
// (decompression + scatter, no network).
func BenchmarkTreeCacheScan(b *testing.B) {
	img, err := rootio.Synthesize(rootio.SynthSpec{Events: 2000, Branches: 6, MeanPayload: 64, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(img)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := rootio.OpenReader(rootio.BytesSource(img))
		if err != nil {
			b.Fatal(err)
		}
		tc := rootio.NewTreeCacheDepth(r, 500, nil, -1)
		for ev := uint64(0); ev < 2000; ev++ {
			if _, err := tc.Event(ev); err != nil {
				b.Fatal(err)
			}
		}
		tc.Close()
	}
}
