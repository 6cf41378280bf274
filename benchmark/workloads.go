package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	davix "godavix"
	"godavix/internal/netsim"
	"godavix/internal/rootio"
)

// workload is one named load shape. setup builds the testbed and the
// seeded inputs; warm runs one untimed iteration with the deepest output
// checks; iterate is the timed unit and check verifies what it produced,
// outside the timed region.
type workload interface {
	name() string
	opUnit() string
	setup(seed int64, sc scale, dir string) error
	warm() (ops, failed int)
	iterate(rec *recorder) (ops int, err error)
	check() (failed int)
	bed() *testbed
	// counts reports the product's own counters, cumulative since setup.
	counts() productCounts
	close()
}

// productCounts are counters the product exposes through public accessors
// (Client.Snapshot, TrainingCache.Fills/PrefetchStats), plus the analysis
// loop's own clock sums, which only advance while tracing.
type productCounts struct {
	jobs, fills                     int64
	prefetchIssued, prefetchWasted  int64
	retries, failovers, hedges      int64
	kernelBytes, pooledBytes        int64
	stall, compute, open, jobTraced time.Duration
}

func (a productCounts) sub(b productCounts) productCounts {
	return productCounts{
		a.jobs - b.jobs, a.fills - b.fills,
		a.prefetchIssued - b.prefetchIssued, a.prefetchWasted - b.prefetchWasted,
		a.retries - b.retries, a.failovers - b.failovers, a.hedges - b.hedges,
		a.kernelBytes - b.kernelBytes, a.pooledBytes - b.pooledBytes,
		a.stall - b.stall, a.compute - b.compute, a.open - b.open, a.jobTraced - b.jobTraced,
	}
}

func (p *productCounts) addSnapshot(s davix.Snapshot) {
	p.retries += s.Engine.Retries
	p.failovers += s.Engine.Failovers
	p.hedges += s.Engine.HedgesIssued
	p.kernelBytes += s.Engine.KernelBytesUp + s.Engine.KernelBytesDown
	p.pooledBytes += s.Engine.PooledBytesUp + s.Engine.PooledBytesDown
}

var bg = context.Background()

// warmByIterating is the warm-up of every workload whose ordinary
// iteration already checks all of its output.
func warmByIterating(w workload) (ops, failed int) {
	ops, err := w.iterate(nil)
	if err != nil {
		return ops, ops
	}
	return ops, w.check()
}

func allWorkloads() []workload {
	wan, lan := netsim.WAN(), netsim.LAN()
	return []workload{
		&analysis{id: "analysis_wan", prof: wan},
		&analysis{id: "analysis_lan", prof: lan},
		&bulkGet{},
		&bulkPut{},
		&metaWalk{},
		&smallOps{},
	}
}

// ---------------------------------------------------------------- analysis

// analysis is the paper's §3 job: open the event file over the simulated
// link, run the whole event loop through a learning TreeCache that
// pipelines its window fills, close. Every iteration is a cold job with a
// new client, because that is what a batch analysis user pays.
type analysis struct {
	id   string
	prof netsim.Profile

	sc       scale
	tb       *testbed
	url      string
	image    []byte
	branches []int
	refSum   uint64
	lastSum  uint64
	pc       productCounts
}

const analysisDepth = 3

func (w *analysis) name() string          { return w.id }
func (w *analysis) opUnit() string        { return "event" }
func (w *analysis) bed() *testbed         { return w.tb }
func (w *analysis) counts() productCounts { return w.pc }

func (w *analysis) setup(seed int64, sc scale, _ string) error {
	w.sc = sc
	spec := rootio.SynthSpec{Events: sc.events, Branches: 12, MeanPayload: 64, Seed: seed}
	img, err := rootio.Synthesize(spec)
	if err != nil {
		return err
	}
	w.image = img
	w.branches = []int{0, 3, 6, 9} // every third column: a sparse ROOT selection
	prof := w.prof
	if w.tb, err = newTestbed(&prof); err != nil {
		return err
	}
	if err := w.tb.store.Put("/data/events.rnt", img); err != nil {
		return err
	}
	w.url = w.tb.base + "/data/events.rnt"
	// The reference physics sum comes from the same loop over the image in
	// memory; every networked job must reproduce it.
	w.refSum, _, _, err = w.memJob(false)
	return err
}

// spinFold is the per-event "reconstruction": fold the payload bytes, then
// spin a fixed number of FNV steps.
func spinFold(payloads [][]byte, steps int) uint64 {
	var h uint64 = 14695981039346656037
	for _, p := range payloads {
		for _, b := range p {
			h = (h ^ uint64(b)) * 1099511628211
		}
	}
	for i := 0; i < steps; i++ {
		h = (h ^ uint64(i)) * 1099511628211
	}
	return h
}

// eventLoop runs the selection loop over get. deep additionally checks
// every payload's event/branch tag. With rec set it reads the clock twice
// per event: time inside get is the loop blocked in the TreeCache (stall),
// time inside spinFold is compute, and the longest single blocked interval
// of each window becomes a rootio span — the stall its fill imposed.
func (w *analysis) eventLoop(events uint64, get func(ev uint64, bi int) ([]byte, error), deep bool, rec *recorder) (sum uint64, bad int, err error) {
	payloads := make([][]byte, len(w.branches))
	var prev, longStart, longEnd time.Time
	var longest time.Duration
	if rec != nil {
		prev = time.Now()
	}
	for ev := uint64(0); ev < events; ev++ {
		for i, bi := range w.branches {
			p, err := get(ev, bi)
			if err != nil {
				return 0, bad, fmt.Errorf("event %d branch %d: %w", ev, bi, err)
			}
			if deep && !rootio.VerifyPayload(p, ev, bi) {
				bad++
			}
			payloads[i] = p
		}
		var mid time.Time
		if rec != nil {
			mid = time.Now()
			d := mid.Sub(prev)
			w.pc.stall += d
			if d > longest {
				longest, longStart, longEnd = d, prev, mid
			}
		}
		sum += spinFold(payloads, w.sc.computeSteps)
		if rec != nil {
			prev = time.Now()
			w.pc.compute += prev.Sub(mid)
			if (ev+1)%w.sc.window == 0 || ev+1 == events {
				rec.add(rec.newID(), rec.currentRoot(), "rootio", "window_stall", longStart, longEnd)
				longest = 0
			}
		}
	}
	return sum, bad, nil
}

// memJob is the event loop over rootio.BytesSource: the reference sum, and
// the rootio layer's CPU and allocation cost with no transport under it.
func (w *analysis) memJob(deep bool) (sum uint64, bad int, events uint64, err error) {
	r, err := rootio.OpenReader(rootio.BytesSource(w.image))
	if err != nil {
		return 0, 0, 0, err
	}
	tc := rootio.NewTrainingCacheDepth(r, w.sc.trainEvents, w.sc.window, analysisDepth)
	defer tc.Close()
	sum, bad, err = w.eventLoop(r.Events(), tc.Branch, deep, nil)
	return sum, bad, r.Events(), err
}

// job is one cold analysis job over the link.
func (w *analysis) job(deep bool, rec *recorder) (sum uint64, bad int, err error) {
	jobStart := time.Now()
	client, err := w.tb.client(davix.Options{VectorParallelism: 1, PrefetchDepth: analysisDepth})
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		w.pc.addSnapshot(client.Snapshot())
		client.Close()
		w.pc.jobs++
		if rec != nil {
			w.pc.jobTraced += time.Since(jobStart)
		}
	}()
	openStart := time.Now()
	f, err := client.Open(bg, w.url)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	if rec != nil {
		rec.call("core", "open", openStart)
		w.pc.open += time.Since(openStart)
	}
	src := rootio.Source{
		Size:            f.Size(),
		ReadVec:         f.ReadVec,
		ReadVecAsyncCtx: f.ReadVecAsyncCtx,
		Hint:            f.PrefetchHint,
	}
	if rec != nil {
		src = rec.wrapSource(src)
	}
	r, err := rootio.OpenReader(src)
	if err != nil {
		return 0, 0, err
	}
	tc := rootio.NewTrainingCacheDepth(r, w.sc.trainEvents, w.sc.window, analysisDepth)
	defer func() {
		issued, wasted, _ := tc.PrefetchStats()
		w.pc.fills += tc.Fills()
		w.pc.prefetchIssued += issued
		w.pc.prefetchWasted += wasted
		tc.Close()
	}()
	return w.eventLoop(r.Events(), tc.Branch, deep, rec)
}

func (w *analysis) warm() (ops, failed int) {
	sum, bad, err := w.job(true, nil)
	if err != nil || sum != w.refSum {
		return w.sc.events, w.sc.events
	}
	return w.sc.events, bad
}

func (w *analysis) iterate(rec *recorder) (int, error) {
	sum, _, err := w.job(false, rec)
	w.lastSum = sum
	return w.sc.events, err
}

func (w *analysis) check() int {
	if w.lastSum != w.refSum {
		return w.sc.events
	}
	return 0
}

func (w *analysis) close() {
	if w.tb != nil {
		w.tb.close()
	}
}

// ---------------------------------------------------------------- bulk

// seededBytes returns n pseudo-random bytes from seed.
func seededBytes(seed int64, n int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// pooled is what the four loopback workloads share: one testbed, one
// long-lived client whose connections stay pooled across iterations, and
// the scratch directory.
type pooled struct {
	sc     scale
	tb     *testbed
	client *davix.Client
}

func (p *pooled) bed() *testbed { return p.tb }

// mib is the bulk object's size in the bulk workloads' op unit.
func (p *pooled) mib() int { return int(p.sc.bulkBytes >> 20) }

func (p *pooled) counts() productCounts {
	var pc productCounts
	pc.addSnapshot(p.client.Snapshot())
	return pc
}

func (p *pooled) open(sc scale, opts davix.Options) error {
	p.sc = sc
	var err error
	if p.tb, err = newTestbed(nil); err != nil {
		return err
	}
	p.client, err = p.tb.client(opts)
	return err
}

func (p *pooled) close() {
	if p.client != nil {
		p.client.Close()
	}
	if p.tb != nil {
		p.tb.close()
	}
}

func bulkOptions(sc scale) davix.Options {
	// Grid transfers always verify, so both bulk workloads pay the inline
	// digest and move their bytes through pooled userspace buffers.
	return davix.Options{ChunkSize: sc.chunkBytes, MaxStreams: maxConns, UploadParallelism: maxConns, VerifyTransfers: true}
}

// bulkGet downloads one large object into a local file in parallel chunks.
type bulkGet struct {
	pooled
	blob []byte
	url  string
	dst  *os.File
	got  int64
}

func (w *bulkGet) name() string   { return "bulk_get_tcp" }
func (w *bulkGet) opUnit() string { return "MiB" }

func (w *bulkGet) setup(seed int64, sc scale, dir string) error {
	if err := w.open(sc, bulkOptions(sc)); err != nil {
		return err
	}
	w.blob = seededBytes(seed, sc.bulkBytes)
	if err := w.tb.store.PutOwned("/bulk/object.dat", w.blob); err != nil {
		return err
	}
	w.url = w.tb.base + "/bulk/object.dat"
	var err error
	w.dst, err = scratchFile(dir, "bulk_get.dat")
	return err
}

func (w *bulkGet) iterate(rec *recorder) (int, error) {
	start := time.Now()
	n, err := w.client.DownloadMultiStreamTo(bg, w.url, w.dst)
	if rec != nil {
		rec.call("core", "download", start)
	}
	w.got = n
	return w.mib(), err
}

// check compares the file on disk with the generated object.
func (w *bulkGet) check() int {
	if w.got != int64(len(w.blob)) || !fileEquals(w.dst, w.blob) {
		return w.mib()
	}
	return 0
}

func (w *bulkGet) warm() (int, int) { return warmByIterating(w) }

func (w *bulkGet) close() {
	if w.dst != nil {
		w.dst.Close()
	}
	w.pooled.close()
}

// scratchFile opens dir/name without truncating it. Repeated set-ups
// rewrite the same file in place and so reuse its page-cache pages; a
// truncated file would take fresh ones, and on this kind of VM a page the
// guest has never touched costs up to 65 µs. The run removes dir when it
// ends.
func scratchFile(dir, name string) (*os.File, error) {
	return os.OpenFile(filepath.Join(dir, name), os.O_RDWR|os.O_CREATE, 0o600)
}

// fileEquals reports whether f holds exactly want.
func fileEquals(f *os.File, want []byte) bool {
	st, err := f.Stat()
	if err != nil || st.Size() != int64(len(want)) {
		return false
	}
	buf := make([]byte, 1<<20)
	for off := 0; off < len(want); off += len(buf) {
		end := min(off+len(buf), len(want))
		if _, err := f.ReadAt(buf[:end-off], int64(off)); err != nil && err != io.EOF {
			return false
		}
		if !bytes.Equal(buf[:end-off], want[off:end]) {
			return false
		}
	}
	return true
}

// bulkPut uploads the same object from a local file in parallel chunks,
// rotating over four destination names.
type bulkPut struct {
	pooled
	blob []byte
	src  *os.File
	iter int
	dest string
}

func (w *bulkPut) name() string   { return "bulk_put_tcp" }
func (w *bulkPut) opUnit() string { return "MiB" }

func (w *bulkPut) setup(seed int64, sc scale, dir string) error {
	if err := w.open(sc, bulkOptions(sc)); err != nil {
		return err
	}
	w.blob = seededBytes(seed, sc.bulkBytes)
	var err error
	if w.src, err = scratchFile(dir, "bulk_put.dat"); err != nil {
		return err
	}
	_, err = w.src.WriteAt(w.blob, 0)
	return err
}

func (w *bulkPut) iterate(rec *recorder) (int, error) {
	w.dest = fmt.Sprintf("/bulk/up-%d.dat", w.iter%4)
	w.iter++
	start := time.Now()
	err := w.client.UploadMultiStream(bg, w.tb.base+w.dest, w.src, int64(len(w.blob)))
	if rec != nil {
		rec.call("core", "upload", start)
	}
	return w.mib(), err
}

// check compares what the store now holds with the source.
func (w *bulkPut) check() int {
	got, _, err := w.tb.store.Get(w.dest)
	if err != nil || !bytes.Equal(got, w.blob) {
		return w.mib()
	}
	return 0
}

func (w *bulkPut) warm() (int, int) { return warmByIterating(w) }

func (w *bulkPut) close() {
	if w.src != nil {
		w.src.Close()
	}
	w.pooled.close()
}

// ---------------------------------------------------------------- meta_walk

// metaWalk walks a three-level namespace whose leaves are wide.
type metaWalk struct {
	pooled
	entries  int
	wantHash uint64
	gotN     int
	gotHash  uint64
}

func (w *metaWalk) name() string   { return "meta_walk_tcp" }
func (w *metaWalk) opUnit() string { return "entry" }

// entryHash folds one walk entry into an order-sensitive hash.
func entryHash(h uint64, path string, size int64, dir bool) uint64 {
	f := fnv.New64a()
	fmt.Fprintf(f, "%x|%s|%d|%t", h, strings.TrimSuffix(path, "/"), size, dir)
	return f.Sum64()
}

func (w *metaWalk) setup(seed int64, sc scale, _ string) error {
	if err := w.open(sc, davix.Options{WalkParallelism: maxConns}); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	st := w.tb.store
	if err := st.Mkdir("/tree"); err != nil {
		return err
	}
	// Build the tree and, alongside it, the hash a depth-first walk in
	// lexical order must produce. Names and sizes are seeded but of fixed
	// width, so the listing's byte size does not depend on the seed.
	w.entries, w.wantHash = 1, entryHash(0, "/tree", 0, true)
	for t := 0; t < sc.walkTop; t++ {
		top := fmt.Sprintf("/tree/d%02d", t)
		if err := st.Mkdir(top); err != nil {
			return err
		}
		w.entries, w.wantHash = w.entries+1, entryHash(w.wantHash, top, 0, true)
		for m := 0; m < sc.walkMid; m++ {
			leaf := fmt.Sprintf("%s/c%02d", top, m)
			if err := st.Mkdir(leaf); err != nil {
				return err
			}
			w.entries, w.wantHash = w.entries+1, entryHash(w.wantHash, leaf, 0, true)
			type file struct {
				name string
				size int64
			}
			files := make([]file, sc.walkFiles)
			for i := range files {
				files[i] = file{fmt.Sprintf("f%03d-%04x.dat", i, rng.Intn(1<<16)), 10 + rng.Int63n(90)}
			}
			sort.Slice(files, func(a, b int) bool { return files[a].name < files[b].name })
			for _, f := range files {
				p := leaf + "/" + f.name
				if err := st.Put(p, make([]byte, f.size)); err != nil {
					return err
				}
				w.entries, w.wantHash = w.entries+1, entryHash(w.wantHash, p, f.size, false)
			}
		}
	}
	return nil
}

func (w *metaWalk) iterate(rec *recorder) (int, error) {
	w.gotN, w.gotHash = 0, 0
	start := time.Now()
	err := w.client.Walk(bg, w.tb.base+"/tree", func(in davix.Info) error {
		w.gotN++
		w.gotHash = entryHash(w.gotHash, in.Path, in.Size, in.Dir)
		return nil
	})
	if rec != nil {
		rec.call("core", "walk", start)
	}
	return w.entries, err
}

// check compares the walk's entry count and order hash with the
// generator's.
func (w *metaWalk) check() int {
	if w.gotN != w.entries || w.gotHash != w.wantHash {
		return w.entries
	}
	return 0
}

func (w *metaWalk) warm() (int, int) { return warmByIterating(w) }

// ---------------------------------------------------------------- smallops

const (
	opGet = iota
	opPut
	opStat
	opGetRange

	smallWorkers  = maxConns
	smallPutBytes = 16 << 10
	smallPutDests = 32 // per worker; a multiple of len(putBodies)
	smallRangeLen = 512
)

var smallSizes = [4]int{1 << 10, 4 << 10, 16 << 10, 64 << 10}

type smallOp struct {
	kind int
	obj  int   // object index (get, stat, getrange) or destination index (put)
	off  int64 // getrange offset
}

type smallResult struct {
	body []byte
	size int64
	err  error
}

// smallOps is a closed loop of small requests from two workers sharing one
// client. The mix is exact, not sampled: each worker's schedule is a seeded
// shuffle of a fixed multiset (60 % Get spread evenly over the four object
// sizes, 20 % Put, 15 % Stat, 5 % GetRange), so bytes per request do not
// depend on the seed.
type smallOps struct {
	pooled
	objects   [][]byte
	sums      []uint32 // the generator's checksum table
	putBodies [8][]byte
	schedule  [smallWorkers][]smallOp
	results   [smallWorkers][]smallResult
}

func (w *smallOps) name() string   { return "smallops_tcp" }
func (w *smallOps) opUnit() string { return "request" }

func objPath(i int) string { return fmt.Sprintf("/small/o%04d", i) }

func putPath(worker, dest int) string { return fmt.Sprintf("/small/put/w%d-%02d", worker, dest) }

func (w *smallOps) setup(seed int64, sc scale, _ string) error {
	if err := w.open(sc, davix.Options{}); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	w.objects = make([][]byte, sc.smallObjects)
	w.sums = make([]uint32, sc.smallObjects)
	for i := range w.objects {
		w.objects[i] = make([]byte, smallSizes[i%4])
		rng.Read(w.objects[i])
		w.sums[i] = crc32.ChecksumIEEE(w.objects[i])
		if err := w.tb.store.Put(objPath(i), w.objects[i]); err != nil {
			return err
		}
	}
	for i := range w.putBodies {
		w.putBodies[i] = make([]byte, smallPutBytes)
		rng.Read(w.putBodies[i])
	}
	perClass := sc.smallObjects / 4
	for g := range w.schedule {
		n := sc.smallOps
		ops := make([]smallOp, 0, n)
		for i := 0; i < n*12/20; i++ {
			ops = append(ops, smallOp{kind: opGet, obj: 4*rng.Intn(perClass) + i%4})
		}
		for i := 0; i < n*4/20; i++ {
			ops = append(ops, smallOp{kind: opPut, obj: i % smallPutDests})
		}
		for i := 0; i < n*3/20; i++ {
			ops = append(ops, smallOp{kind: opStat, obj: rng.Intn(sc.smallObjects)})
		}
		for i := 0; i < n/20; i++ {
			obj := rng.Intn(sc.smallObjects)
			ops = append(ops, smallOp{kind: opGetRange, obj: obj,
				off: rng.Int63n(int64(len(w.objects[obj]) - smallRangeLen + 1))})
		}
		rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
		w.schedule[g] = ops
		w.results[g] = make([]smallResult, len(ops))
	}
	return nil
}

func (w *smallOps) totalOps() int { return smallWorkers * w.sc.smallOps }

func (w *smallOps) iterate(rec *recorder) (int, error) {
	var wg sync.WaitGroup
	for g := range w.schedule {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res := w.results[g]
			for i, op := range w.schedule[g] {
				var start time.Time
				if rec != nil {
					start = time.Now()
				}
				var r smallResult
				switch op.kind {
				case opGet:
					r.body, r.err = w.client.Get(bg, w.tb.base+objPath(op.obj))
				case opPut:
					r.err = w.client.Put(bg, w.tb.base+putPath(g, op.obj), w.putBodies[op.obj%len(w.putBodies)])
				case opStat:
					var in davix.Info
					in, r.err = w.client.Stat(bg, w.tb.base+objPath(op.obj))
					r.size = in.Size
				case opGetRange:
					r.body, r.err = w.client.GetRange(bg, w.tb.base+objPath(op.obj), op.off, smallRangeLen)
				}
				res[i] = r
				if rec != nil {
					rec.call("core", "request", start)
				}
			}
		}(g)
	}
	wg.Wait()
	return w.totalOps(), nil
}

// check holds every returned body against the generator's checksum table
// (ranges against the generated bytes, sizes against the generated sizes)
// and the store's view of every Put destination against the body last
// written there. The bodies are dropped afterwards.
func (w *smallOps) check() int {
	failed := 0
	for g := range w.schedule {
		written := map[int]bool{}
		for i, op := range w.schedule[g] {
			r := w.results[g][i]
			ok := r.err == nil
			switch op.kind {
			case opGet:
				ok = ok && crc32.ChecksumIEEE(r.body) == w.sums[op.obj]
			case opStat:
				ok = ok && r.size == int64(len(w.objects[op.obj]))
			case opGetRange:
				ok = ok && bytes.Equal(r.body, w.objects[op.obj][op.off:op.off+smallRangeLen])
			case opPut:
				if ok && !written[op.obj] {
					written[op.obj] = true
					got, _, err := w.tb.store.Get(putPath(g, op.obj))
					ok = err == nil && bytes.Equal(got, w.putBodies[op.obj%len(w.putBodies)])
				}
			}
			if !ok {
				failed++
			}
			w.results[g][i] = smallResult{}
		}
	}
	return failed
}

func (w *smallOps) warm() (int, int) { return warmByIterating(w) }

func findWorkloads(name string) ([]workload, error) {
	all := allWorkloads()
	if name == "" {
		return all, nil
	}
	for _, w := range all {
		if w.name() == name {
			return []workload{w}, nil
		}
	}
	return nil, fmt.Errorf("no such workload: %q", name)
}
