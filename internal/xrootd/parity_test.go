package xrootd

import (
	"context"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"godavix/internal/core"
	"godavix/internal/httpserv"
	"godavix/internal/netsim"
	"godavix/internal/rangev"
	"godavix/internal/rootio"
	"godavix/internal/storage"
)

// The parity job is the paper's §3 analysis at test size: a cold
// TrainingCache scan of every event over a sparse branch set, pipelining
// parityDepth windows ahead, one multi-range request (HTTP) or one readv
// (xrootd) per fill.
var (
	paritySpec     = rootio.SynthSpec{Events: 2048, Branches: 12, MeanPayload: 16, Seed: 1}
	parityBranches = []int{0, 3, 6, 9}
)

const (
	parityWindow = 256
	parityTrain  = 100
	parityDepth  = 3
	parityPath   = "/store/events.rnt"
	parityHTTP   = "dpm1:80"
	parityXrd    = "dpm1:1094"

	// The pinned counts of the job: rootio's vectored reads, the ranges
	// they carry and their bytes. xrootd sends every vectored read as a
	// readv after a login and an open.
	parityVectored = 10
	parityRanges   = 35
	parityPayload  = 161559
	// davix opens with one GET for the file's first 4 KiB and last 60 KiB
	// and serves the ranges lying wholly inside them from memory: the
	// 8-byte header, the 16-byte trailer and the 2 823-byte index (all of
	// rootio's two open-time reads) and three baskets of the last fills.
	// The open's 206 is those 64 KiB plus 657 bytes of status line,
	// headers and two parts' framing. Every other range goes out in the
	// eight remaining vectored GETs; no HEAD is sent.
	parityEndsHead   = 4 << 10
	parityEndsTail   = 60 << 10
	parityEndsRanges = 3 + 3
	parityEndsBytes  = 8 + 16 + 2823 + 3288 + 3258 + 3299
	parityEndsWire   = parityEndsHead + parityEndsTail + 657
	parityHTTPGets   = 1 + parityVectored - 2
	// The HTTP framing budget of every response but the open's: a
	// response's status line and headers fit in 320 bytes, a multipart
	// part's delimiter and headers in 160.
	parityHTTPPerResponse = 320
	parityHTTPPerRange    = 160
	// xrootd framing is exact: the 8-byte handshake echo, an 8-byte header
	// per response and the open answer's 12-byte handle and size.
	parityXrdFraming = 8 + 8*(2+parityVectored) + 12
)

// parityImage synthesizes the dataset once per test binary: deflating it
// is most of the test's time under the race detector.
var parityImage = sync.OnceValues(func() ([]byte, error) { return rootio.Synthesize(paritySpec) })

// parityJob is the counted outcome of one cold analysis job.
type parityJob struct {
	requests int64 // requests the server served
	vectored int64 // of which GETs or readvs
	heads    int64 // of which HEADs
	ranges   int64 // byte ranges rootio asked for
	payload  int64 // their bytes
	open     int64 // bytes the client read off its connections while opening
	wire     int64 // bytes it read in all
	sum      uint64
	events   uint64
	issued   int64
	wasted   int64
	elapsed  time.Duration

	// The ranges, and their bytes, lying wholly inside the ends a davix
	// Open keeps.
	endsRanges, endsPayload int64
}

// framing is what the client read beyond the payload it was asked for.
func (j parityJob) framing() int64 { return j.wire - j.payload }

// httpFraming is framing without the open's bytes: the ranges served from
// the ends crossed the wire in the open.
func (j parityJob) httpFraming() int64 { return j.wire - j.open - (j.payload - j.endsPayload) }

// parityBed is one link: a single MemStore served by httpserv and by the
// xrootd Server, each client dialing through a byte-counting dialer.
type parityBed struct {
	net  *netsim.Network
	http *httpserv.Server
	xrd  *Server
}

func newParityBed(t *testing.T, prof netsim.Profile, img []byte) *parityBed {
	t.Helper()
	b := &parityBed{net: netsim.New(prof)}
	store := storage.NewMemStore()
	if err := store.Put(parityPath, img); err != nil {
		t.Fatal(err)
	}
	b.http = httpserv.New(store, httpserv.Options{})
	b.xrd = NewServer(store)
	for addr, serve := range map[string]func(net.Listener) error{parityHTTP: b.http.Serve, parityXrd: b.xrd.Serve} {
		l, err := b.net.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go serve(l)
	}
	return b
}

// countingDialer counts the bytes its connections read.
type countingDialer struct {
	net  *netsim.Network
	read *atomic.Int64
}

func (d countingDialer) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	c, err := d.net.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	return countingConn{c, d.read}, nil
}

type countingConn struct {
	net.Conn
	read *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// payloadCount counts the ranges a Source is asked for and their bytes,
// in all and of those inside the ends.
type payloadCount struct {
	ranges, bytes, endsRanges, endsBytes atomic.Int64
}

// inEnds reports whether r lies wholly inside the first parityEndsHead or
// the last parityEndsTail bytes of an object of size bytes.
func inEnds(size int64, r rangev.Range) bool {
	return r.End() <= parityEndsHead || r.Off >= size-parityEndsTail
}

// countPayload counts the ranges src is asked for and their bytes.
func countPayload(src rootio.Source, c *payloadCount) rootio.Source {
	add := func(rs []rangev.Range) {
		c.ranges.Add(int64(len(rs)))
		for _, r := range rs {
			c.bytes.Add(r.Len)
			if inEnds(src.Size, r) {
				c.endsRanges.Add(1)
				c.endsBytes.Add(r.Len)
			}
		}
	}
	out := src
	out.ReadVec = func(ranges []rangev.Range, dsts [][]byte) error {
		add(ranges)
		return src.ReadVec(ranges, dsts)
	}
	if src.ReadVecAsyncCtx != nil {
		out.ReadVecAsyncCtx = func(ctx context.Context, ranges []rangev.Range, dsts [][]byte) <-chan error {
			add(ranges)
			return src.ReadVecAsyncCtx(ctx, ranges, dsts)
		}
	}
	return out
}

// chunkSource adapts an xrootd File to rootio: each range is one readv
// Chunk, and fills go out asynchronously like xrootd's own prefetch.
func chunkSource(ctx context.Context, f *File) rootio.Source {
	chunks := func(ranges []rangev.Range) []Chunk {
		cks := make([]Chunk, len(ranges))
		for i, r := range ranges {
			cks[i] = Chunk{Offset: r.Off, Length: int32(r.Len)}
		}
		return cks
	}
	return rootio.Source{
		Size: f.Size(),
		ReadVec: func(ranges []rangev.Range, dsts [][]byte) error {
			return f.ReadV(ctx, chunks(ranges), dsts)
		},
		ReadVecAsyncCtx: func(ctx context.Context, ranges []rangev.Range, dsts [][]byte) <-chan error {
			return f.ReadVAsync(ctx, chunks(ranges), dsts)
		},
	}
}

// fold is the job's physics: an FNV fold of every payload byte, so the
// result depends on every byte the transport delivered.
func fold(h uint64, p []byte) uint64 {
	for _, c := range p {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// trainedJob runs the event loop through a TrainingCache of the given
// depth, counting the payload src is asked for.
func trainedJob(src rootio.Source, depth int) (parityJob, error) {
	var c payloadCount
	r, err := rootio.OpenReader(countPayload(src, &c))
	if err != nil {
		return parityJob{}, err
	}
	tc := rootio.NewTrainingCacheDepth(r, parityTrain, parityWindow, depth)
	defer tc.Close()
	j := parityJob{sum: 14695981039346656037, events: r.Events()}
	for ev := uint64(0); ev < j.events; ev++ {
		for _, bi := range parityBranches {
			p, err := tc.Branch(ev, bi)
			if err != nil {
				return parityJob{}, err
			}
			j.sum = fold(j.sum, p)
		}
	}
	j.ranges, j.payload = c.ranges.Load(), c.bytes.Load()
	j.endsRanges, j.endsPayload = c.endsRanges.Load(), c.endsBytes.Load()
	j.issued, j.wasted, _ = tc.PrefetchStats()
	return j, nil
}

// demandJob runs the event loop with no TreeCache: every basket is read on
// demand by the Reader.
func demandJob(src rootio.Source) (parityJob, error) {
	r, err := rootio.OpenReader(src)
	if err != nil {
		return parityJob{}, err
	}
	j := parityJob{sum: 14695981039346656037, events: r.Events()}
	for ev := uint64(0); ev < j.events; ev++ {
		ps, err := r.ReadEvent(ev, parityBranches)
		if err != nil {
			return parityJob{}, err
		}
		for _, p := range ps {
			j.sum = fold(j.sum, p)
		}
	}
	return j, nil
}

// httpJob opens the dataset through a fresh davix client and runs job over
// the File, counting the server's requests and the client's wire bytes.
func (b *parityBed) httpJob(t *testing.T, opts core.Options, job func(*core.File) (parityJob, error)) parityJob {
	t.Helper()
	var wire atomic.Int64
	opts.Strategy = core.StrategyNone
	opts.Dialer = countingDialer{b.net, &wire}
	client, err := core.NewClient(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	reqs0, gets0, heads0 := b.http.Requests(), b.http.RequestsByMethod("GET"), b.http.RequestsByMethod("HEAD")
	start := time.Now()
	f, err := client.Open(context.Background(), parityHTTP, parityPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	open := wire.Load()
	j, err := job(f)
	if err != nil {
		t.Fatalf("http job: %v", err)
	}
	j.elapsed = time.Since(start)
	j.requests = b.http.Requests() - reqs0
	j.vectored = b.http.RequestsByMethod("GET") - gets0
	j.heads = b.http.RequestsByMethod("HEAD") - heads0
	j.open, j.wire = open, wire.Load()
	return j
}

// xrootdJob is the trained job over a fresh xrootd client.
func (b *parityBed) xrootdJob(t *testing.T) parityJob {
	t.Helper()
	var wire atomic.Int64
	client := NewClient(countingDialer{b.net, &wire}, parityXrd)
	defer client.Close()
	reqs0, readvs0 := b.xrd.Requests(), b.xrd.ReadVs()
	ctx := context.Background()
	start := time.Now()
	f, err := client.Open(ctx, parityPath)
	if err != nil {
		t.Fatal(err)
	}
	j, err := trainedJob(chunkSource(ctx, f), parityDepth)
	if err != nil {
		t.Fatalf("xrootd job: %v", err)
	}
	j.elapsed = time.Since(start)
	j.requests = b.xrd.Requests() - reqs0
	j.vectored = b.xrd.ReadVs() - readvs0
	j.wire = wire.Load()
	return j
}

// fileSource is the rootio Source over a davix File: vectored reads, and
// the File's cancellable asynchronous vectored read for pipelined fills.
func fileSource(f *core.File) rootio.Source {
	return rootio.Source{Size: f.Size(), ReadVec: f.ReadVec, ReadVecAsyncCtx: f.ReadVecAsyncCtx}
}

// TestHTTPXrootdParity holds the paper's Figure 4 claim as counts: the
// same cold analysis job over davix/HTTP and over xrootd, on the LAN and
// on the WAN, asks for the same ranges and payload bytes and computes the
// same physics. xrootd sends every vectored read and opens in two round
// trips; HTTP opens in one GET whose ends serve two of the vectored reads
// outright, so it needs three requests fewer. Its framing stays within a
// stated budget, and neither side wastes a prefetched byte. Wall-clock
// times are logged, never gated on.
func TestHTTPXrootdParity(t *testing.T) {
	img, err := parityImage()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := trainedJob(rootio.BytesSource(img), parityDepth)
	if err != nil {
		t.Fatal(err)
	}
	if ref.events != uint64(paritySpec.Events) {
		t.Fatalf("reference job read %d events, want %d", ref.events, paritySpec.Events)
	}

	for _, prof := range []netsim.Profile{netsim.LAN(), netsim.WAN()} {
		b := newParityBed(t, prof, img)
		h := b.httpJob(t, core.Options{VectorParallelism: 1}, func(f *core.File) (parityJob, error) {
			return trainedJob(fileSource(f), parityDepth)
		})
		x := b.xrootdJob(t)
		t.Logf("%s: http %d requests (%d GET, %d HEAD), open %d B, %d ranges of %d payload B (%d of %d B from the ends), %d framing B, %v; xrootd %d requests (%d readv), %d ranges, %d payload B, %d framing B, %v",
			prof.Name, h.requests, h.vectored, h.heads, h.open, h.ranges, h.payload, h.endsRanges, h.endsPayload, h.httpFraming(), h.elapsed,
			x.requests, x.vectored, x.ranges, x.payload, x.framing(), x.elapsed)
		if prof.Name == "WAN" {
			t.Logf("WAN wall clock, for information only: http/xrootd = %.2f", h.elapsed.Seconds()/x.elapsed.Seconds())
		}
		for _, c := range []struct {
			name               string
			j                  parityJob
			requests, vectored int64
		}{
			{"http", h, parityHTTPGets, parityHTTPGets},
			{"xrootd", x, 2 + parityVectored, parityVectored},
		} {
			if c.j.sum != ref.sum || c.j.events != ref.events {
				t.Errorf("%s %s: sum %#x over %d events, want %#x over %d", prof.Name, c.name, c.j.sum, c.j.events, ref.sum, ref.events)
			}
			if c.j.requests != c.requests || c.j.vectored != c.vectored || c.j.heads != 0 {
				t.Errorf("%s %s: %d requests, %d vectored, %d HEAD; want %d, %d, 0", prof.Name, c.name, c.j.requests, c.j.vectored, c.j.heads, c.requests, c.vectored)
			}
			if c.j.ranges != parityRanges || c.j.payload != parityPayload {
				t.Errorf("%s %s: %d ranges of %d bytes, want %d of %d", prof.Name, c.name, c.j.ranges, c.j.payload, parityRanges, parityPayload)
			}
			if c.j.issued == 0 || c.j.wasted != 0 {
				t.Errorf("%s %s: prefetch issued %d bytes, wasted %d; want some issued and none wasted", prof.Name, c.name, c.j.issued, c.j.wasted)
			}
		}
		if h.requests >= x.requests {
			t.Errorf("%s: http needed %d requests, xrootd %d; http should need fewer", prof.Name, h.requests, x.requests)
		}
		if h.open != parityEndsWire || h.endsRanges != parityEndsRanges || h.endsPayload != parityEndsBytes {
			t.Errorf("%s http: open read %d B and served %d ranges of %d B; want %d B, %d ranges of %d B",
				prof.Name, h.open, h.endsRanges, h.endsPayload, parityEndsWire, parityEndsRanges, parityEndsBytes)
		}
		budget := parityHTTPPerResponse*(h.requests-1) + parityHTTPPerRange*(h.ranges-h.endsRanges)
		if h.httpFraming() > budget {
			t.Errorf("%s http: %d framing bytes, budget %d", prof.Name, h.httpFraming(), budget)
		}
		if x.framing() != parityXrdFraming {
			t.Errorf("%s xrootd: %d framing bytes, want exactly %d", prof.Name, x.framing(), parityXrdFraming)
		}
	}

	// Every other way of reading the file over HTTP computes the same
	// physics: synchronous learned fills, demand reads with no cache, and
	// demand reads through the block cache's read-ahead.
	b := newParityBed(t, netsim.LAN(), img)
	for _, c := range []struct {
		name string
		opts core.Options
		job  func(*core.File) (parityJob, error)
	}{
		{"learned sync", core.Options{VectorParallelism: 1}, func(f *core.File) (parityJob, error) {
			return trainedJob(fileSource(f), 0)
		}},
		{"no cache", core.Options{VectorParallelism: 1}, func(f *core.File) (parityJob, error) {
			return demandJob(fileSource(f))
		}},
		{"block-cache read-ahead", core.Options{CacheSize: 32 << 20, PrefetchDepth: 4}, func(f *core.File) (parityJob, error) {
			return demandJob(rootio.Source{Size: f.Size(), ReadVec: func(ranges []rangev.Range, dsts [][]byte) error {
				for i, r := range ranges {
					if _, err := f.ReadAt(dsts[i][:r.Len], r.Off); err != nil && err != io.EOF {
						return err
					}
				}
				return nil
			}})
		}},
	} {
		if j := b.httpJob(t, c.opts, c.job); j.sum != ref.sum || j.events != ref.events {
			t.Errorf("http %s: sum %#x over %d events, want %#x over %d", c.name, j.sum, j.events, ref.sum, ref.events)
		}
	}
}
