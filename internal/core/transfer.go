package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"godavix/internal/bufpool"
	"godavix/internal/digest"
	"godavix/internal/metalink"
	"godavix/internal/obs"
	"godavix/internal/wire"
)

// walkReplicaRing runs tryOne over the health-ordered replica ring starting
// at idx mod len(replicas). tryOne returns (done, err): done means the walk
// must stop — success, caller cancellation, or a semantic failure every
// replica reproduces. A walk that ctx cut short reports ctx's error (joined
// with the last replica's), not ErrAllReplicasFailed: the replicas it never
// reached did not fail.
func (c *Client) walkReplicaRing(ctx context.Context, replicas []Replica, idx int, tryOne func(Replica) (bool, error)) error {
	ring := c.health.order(replicas)
	var lastErr error
	fail := func() error {
		if err := ctx.Err(); err != nil {
			return errors.Join(err, lastErr)
		}
		return errors.Join(ErrAllReplicasFailed, lastErr)
	}
	var skipped []Replica
	for attempt := 0; attempt < len(ring); attempt++ {
		rep := ring[(idx+attempt)%len(ring)]
		if len(ring) > 1 && !c.health.acquire(rep.Host) {
			skipped = append(skipped, rep)
			continue
		}
		done, err := tryOne(rep)
		if done && err == nil {
			return nil
		}
		lastErr = err
		if done {
			return fail()
		}
	}
	// Last resort: the breaker-skipped replicas, in ring order — the
	// scoreboard must never make a chunk impossible when everything it
	// preferred has failed too.
	for _, rep := range skipped {
		done, err := tryOne(rep)
		if done && err == nil {
			return nil
		}
		lastErr = err
		if done {
			break
		}
	}
	return fail()
}

// metalinkReplicas appends ml's locations to reps in priority order,
// skipping malformed URLs and duplicates of entries already present.
func metalinkReplicas(reps []Replica, ml *metalink.Metalink) []Replica {
	seen := make(map[Replica]bool, len(reps))
	for _, r := range reps {
		seen[r] = true
	}
	for _, u := range ml.URLs {
		h, p, err := metalink.SplitURL(u.Loc)
		if err != nil {
			continue
		}
		r := Replica{Host: h, Path: p}
		if !seen[r] {
			seen[r] = true
			reps = append(reps, r)
		}
	}
	return reps
}

// scatterResult reports one streamed chunk fetch.
type scatterResult struct {
	n        int64  // payload bytes delivered
	sum      uint32 // chunk digest under the transfer algorithm
	summed   bool   // sum is valid (verification was on)
	verified bool   // the server sent a per-chunk Digest and it matched
}

// scatterChunkReplicas streams chunk idx covering [off, off+ln) straight
// into dst — every chunk read of every transfer goes through here. Load is
// spread by starting at replica idx mod len(replicas) and walking the ring
// on unavailability, so one dead replica costs one retry per chunk rather
// than the whole transfer. The ring is health-ordered first and replicas
// whose breaker is open are skipped while alternatives exist — once the
// scoreboard has demoted a dead disk node, later chunks stop paying its
// timeout at all (a half-open probe re-admits it when it recovers).
// fastName names the target file for the kernel splice path ("" disables
// it); algo is the inline digest algorithm. sum tees the body through the
// chunk digest; perChunk additionally asks the server to commit to a
// per-range Digest and compares it inline (the costlier mode — the server
// must hash the range before its first body byte).
func (c *Client) scatterChunkReplicas(ctx context.Context, replicas []Replica, idx int, off, ln int64, dst io.WriterAt, fastName string, algo digest.Algo, sum, perChunk bool) (res scatterResult, err error) {
	path := replicas[0].Path
	c.opts.Trace.EmitChunkStart(obs.Down, path, idx, off, ln)
	defer func() { c.opts.Trace.EmitChunkDone(obs.Down, path, idx, off, ln, err) }()
	if len(replicas) > 1 {
		if budget, ok := c.hedgeBudget(); ok {
			ring := c.health.order(replicas)
			if r, handled, herr := c.scatterChunkHedged(ctx, ring, idx, off, ln, dst, fastName, algo, sum, perChunk, budget); handled {
				return r, herr
			}
			// Not settled by the race (a demoted leg, no distinct standby
			// host, or both legs failed transiently): the serial walk
			// below still owns the chunk.
		}
	}
	err = c.walkReplicaRing(ctx, replicas, idx, func(rep Replica) (bool, error) {
		r, err := c.getRangeScatter(ctx, rep.Host, rep.Path, path, off, ln, dst, fastName, algo, sum, perChunk)
		if err == nil && r.n == ln {
			res = r
			return true, nil
		}
		if err == nil {
			err = fmt.Errorf("davix: short chunk from %s: %d < %d", rep.Host, r.n, ln)
		}
		return ctx.Err() != nil || !replicaUnavailable(err), err
	})
	return res, err
}

// getRangeScatter fetches [off, off+ln) from exactly one replica, streaming
// the body into dst at its object offset — the chunk never exists whole in
// client memory. objPath labels the transfer for byte-path accounting.
// Replica selection belongs to the caller; the engine applies redirects and
// the retry budget but no failover here.
func (c *Client) getRangeScatter(ctx context.Context, host, path, objPath string, off, ln int64, dst io.WriterAt, fastName string, algo digest.Algo, sum, perChunk bool) (scatterResult, error) {
	rangeVal := "bytes=" + strconv.FormatInt(off, 10) + "-" + strconv.FormatInt(off+ln-1, 10)
	var res scatterResult
	err := c.exec(ctx, host, path, specChunk, func(h, p string) *wire.Request {
		req := wire.NewRequest("GET", h, p)
		req.Header.Set("Range", rangeVal)
		if perChunk {
			req.Header.Set("Want-Digest", string(algo))
		}
		return req
	}, func(_ Replica, resp *Response) error {
		res = scatterResult{}
		skip := int64(0)
		switch resp.StatusCode {
		case 206:
		case 200:
			// Range-ignorant server: the body is the whole object; skip
			// the prefix and stream just our slice.
			skip = off
		default:
			return statusErr(resp, "GET", path)
		}
		return c.scatterBody(ctx, resp, skip, off, ln, dst, fastName, objPath, algo, sum, &res)
	})
	if err != nil {
		// res may still carry the partial byte count of the failed last
		// attempt — a cancelled hedge leg reports its wasted bytes this way.
		return scatterResult{n: res.n}, err
	}
	return res, nil
}

// scatterBody drains resp's payload slice into dst at offset off. Three
// shapes, fastest first:
//
//   - kernel: dst is a real file (fastName), nothing needs the bytes in
//     userspace (no digest), and the connection bottoms out in a socket —
//     Response.WriteBodyTo hands the raw conn to os.File.ReadFrom and the
//     runtime's splice moves the payload entirely inside the kernel.
//   - pooled: a 64 KiB pooled buffer streams body → dst.WriteAt at an
//     advancing offset, optionally teeing each read into the chunk digest.
//   - prefix-skip (skip > 0): a range-ignorant server sent the whole
//     object; the prefix is discarded, then the pooled path runs.
//
// Either way the chunk is never materialized and res reports exactly which
// bytes moved how (Snapshot counters + TransferPath trace event).
//
// Connection I/O is deadline-bounded, not ctx-bounded, so a cancelled
// sibling (first-error fan-out cancel, a hedged race's loser) would
// otherwise block until the request deadline: armAbort makes ctx
// cancellation slam the connection deadline so a blocked body read returns
// promptly. The slammed connection is poisoned and must be discarded, so
// every exit closes the response through closeResp.
func (c *Client) scatterBody(ctx context.Context, resp *Response, skip, off, ln int64, dst io.WriterAt, fastName, objPath string, algo digest.Algo, sum bool, res *scatterResult) error {
	closeResp := armAbort(ctx, resp)
	if skip > 0 {
		if _, err := io.CopyN(io.Discard, resp.Body, skip); err != nil {
			closeResp()
			if err == io.EOF {
				return &StatusError{Code: 416, Status: "416 Requested Range Not Satisfiable", Method: "GET", Path: objPath}
			}
			return err
		}
	}
	var h hash.Hash
	if sum {
		h, _ = digest.New(algo)
	}

	// Kernel fast path: only for range-honouring responses (skip == 0 —
	// after a prefix skip the bufio layer is mid-object anyway) with no
	// digest to feed.
	if fastName != "" && h == nil && skip == 0 && kernelEligible(resp.conn.NetConn()) {
		if f, ferr := os.OpenFile(fastName, os.O_WRONLY, 0); ferr == nil {
			cc := resp.conn.NetConn().(*countingConn)
			_, err := f.Seek(off, io.SeekStart)
			var n, direct int64
			if err == nil {
				n, direct, err = resp.WriteBodyTo(f, cc.Unwrap())
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			// The direct bytes bypassed the counting Read; the buffered
			// prefix was already counted when bufio filled.
			cc.addPendDown(direct)
			c.recordBytePath(obs.Down, objPath, obs.PathKernel, direct)
			c.recordBytePath(obs.Down, objPath, obs.PathPooled, n-direct)
			cerr := closeResp()
			if err == nil {
				err = cerr
			}
			res.n = n
			return err
		}
		// Re-open failed (unlinked temp file, exotic fd): pooled path below.
	}

	buf := bufpool.Get(64 << 10)
	defer bufpool.Put(buf)
	pos := off
	var err error
	for pos < off+ln {
		b := buf
		if rem := off + ln - pos; rem < int64(len(b)) {
			b = b[:rem]
		}
		n, rerr := resp.Body.Read(b)
		if n > 0 {
			if _, werr := dst.WriteAt(b[:n], pos); werr != nil {
				closeResp()
				return werr
			}
			if h != nil {
				h.Write(b[:n])
			}
			pos += int64(n)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			err = rerr
			break
		}
	}
	served := pos - off
	res.n = served
	c.recordBytePath(obs.Down, objPath, obs.PathPooled, served)
	cerr := closeResp()
	if err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if served == 0 && ln > 0 && skip > 0 {
		// The whole request sits past end of object; match the 416 a
		// range-honouring server would have sent.
		return &StatusError{Code: 416, Status: "416 Requested Range Not Satisfiable", Method: "GET", Path: objPath}
	}
	if h != nil {
		sum := h.Sum(nil)
		res.sum = binary.BigEndian.Uint32(sum)
		res.summed = true
		// A range-honouring server that answered Want-Digest committed to
		// the payload digest of this very response — compare at zero cost.
		if skip == 0 {
			if want, ok := digest.FromDigestHeader(resp.Header.Get("Digest"), algo); ok {
				if !bytes.Equal(sum, want.Sum) {
					c.metrics.checksumMismatches.Add(1)
					return &ChecksumError{
						Path: objPath, Algo: string(algo), Off: off, Length: served,
						Got: hex.EncodeToString(sum), Want: hex.EncodeToString(want.Sum),
					}
				}
				res.verified = true
			}
		}
	}
	return nil
}

// armAbort couples ctx cancellation to resp's connection: pool I/O is
// deadline-bounded, not ctx-bounded, so without this a reader blocked in
// resp.Body.Read would survive cancellation until the request deadline.
// When ctx is cancelled the hook slams the connection deadline into the
// past, failing the blocked read immediately. The returned closeResp must
// replace every resp.Close() on the caller's paths: it disarms the hook
// first and, when the hook already fired (or may be firing), marks the
// response non-keep-alive so the poisoned connection is discarded instead
// of recycled.
func armAbort(ctx context.Context, resp *Response) (closeResp func() error) {
	stop := context.AfterFunc(ctx, func() {
		resp.conn.NetConn().SetDeadline(time.Unix(1, 0))
	})
	closed := false
	return func() error {
		if closed {
			return nil
		}
		closed = true
		if !stop() {
			resp.KeepAlive = false
		}
		return resp.Close()
	}
}

// chunkServerDigest asks one replica for the digest of [off, off+ln)
// without re-reading the payload: a HEAD with Range and Want-Digest. ok is
// false when the server would not commit to a range digest.
func (c *Client) chunkServerDigest(ctx context.Context, host, path string, algo digest.Algo, off, ln int64) (uint32, bool) {
	rangeVal := "bytes=" + strconv.FormatInt(off, 10) + "-" + strconv.FormatInt(off+ln-1, 10)
	var sum uint32
	ok := false
	err := c.exec(ctx, host, path, specHead, func(h, p string) *wire.Request {
		req := wire.NewRequest("HEAD", h, p)
		req.Header.Set("Range", rangeVal)
		req.Header.Set("Want-Digest", string(algo))
		return req
	}, func(_ Replica, resp *Response) error {
		defer resp.Close()
		if resp.StatusCode != 206 {
			// 200 means the Digest (if any) covers the whole object, not
			// our range; anything else is a refusal. Either way: no commit.
			return nil
		}
		if want, got := digest.FromDigestHeader(resp.Header.Get("Digest"), algo); got {
			sum = binary.BigEndian.Uint32(want.Sum)
			ok = true
		}
		return nil
	})
	return sum, ok && err == nil
}

// localizeMismatch narrows a whole-object checksum mismatch to the first
// offending chunk by comparing the client-side sums the rollup was fed
// during the transfer against per-range digests fetched with HEADs — the
// payload is never re-read. Returns nil when no server on the ring will
// commit to range digests; the caller falls back to the whole-object span.
func (c *Client) localizeMismatch(ctx context.Context, replicas []Replica, path string, algo digest.Algo, sums []digest.Span) *ChecksumError {
	for _, cs := range sums {
		for _, rep := range c.health.order(replicas) {
			want, ok := c.chunkServerDigest(ctx, rep.Host, rep.Path, algo, cs.Off, cs.N)
			if !ok {
				continue
			}
			if want != cs.Sum {
				return &ChecksumError{
					Path: path, Algo: string(algo), Off: cs.Off, Length: cs.N,
					Got:  fmt.Sprintf("%08x", cs.Sum),
					Want: fmt.Sprintf("%08x", want),
				}
			}
			break
		}
	}
	return nil
}

// chunkLedger is one transfer's record of completed chunks: their digests
// feed the combinable whole-object rollup (nil with verification off) and
// the resume journal (nil when not journaling). Chunk workers share it.
type chunkLedger struct {
	ck *checkpoint

	mu     sync.Mutex
	rollup *digest.Rollup
}

// wantsSums reports whether anything consumes chunk digests.
func (l *chunkLedger) wantsSums() bool { return l.ck != nil || l.rollup != nil }

// note feeds one chunk digest to the rollup without journaling it: the
// journal already holds the chunk (resumed) or must never hold it (the
// upload probe, re-sent by every attempt).
func (l *chunkLedger) note(off, ln int64, sum uint32) {
	if l.rollup == nil {
		return
	}
	l.mu.Lock()
	l.rollup.Add(off, ln, sum)
	l.mu.Unlock()
}

// record journals a freshly transferred chunk and notes it.
func (l *chunkLedger) record(off, ln int64, sum uint32) {
	if l.ck != nil {
		l.ck.append(off, ln, sum)
	}
	l.note(off, ln, sum)
}

// close finishes the journal, if any; keep as in checkpoint.close.
func (l *chunkLedger) close(keep bool) {
	if l.ck != nil {
		l.ck.close(keep)
	}
}

// downloadPlan is what a multi-stream download knows before its first
// chunk GET.
type downloadPlan struct {
	replicas []Replica // the primary, then the Metalink's in priority order
	size     int64
	want     string // server checksum as "algo:hex", "" when none was reported
}

// planDownload resolves the replica ring, object size and server checksum
// of host/path. ml is the Metalink the entry point's policy obtained (nil
// for none); a Stat fills in whichever of size and — with VerifyTransfers —
// checksum it lacks: a HEAD also reports the server's checksum, in the
// algorithm its Want-Digest negotiated, so verification never costs a data
// read. A Metalink checksum keeps whatever algorithm it names.
func (c *Client) planDownload(ctx context.Context, host, path string, ml *metalink.Metalink) (downloadPlan, error) {
	p := downloadPlan{replicas: []Replica{{Host: host, Path: path}}, size: -1}
	if ml != nil {
		p.replicas = metalinkReplicas(p.replicas, ml)
		p.size, p.want = ml.Size, ml.Checksum
	}
	if p.size >= 0 && (p.want != "" || !c.opts.VerifyTransfers) {
		return p, nil
	}
	var inf Info
	var err error
	for _, r := range c.health.order(p.replicas) {
		if inf, err = c.Stat(ctx, r.Host, r.Path); err == nil {
			break
		}
	}
	switch {
	case err != nil && p.size < 0:
		return p, fmt.Errorf("davix: cannot determine size: %w", err)
	case err != nil:
		// Only the checksum was missing: the download can still run, with
		// whatever per-chunk digests the replicas offer.
		return p, nil
	case inf.Dir:
		return p, fmt.Errorf("davix: download %s: is a collection", path)
	}
	if p.size < 0 {
		p.size = inf.Size
	}
	if p.want == "" {
		p.want = inf.Checksum
	}
	return p, nil
}

// DownloadMultiStreamTo downloads host/path into w without materializing
// the object: every chunk streams straight from its response body to
// w.WriteAt through at most one pooled 64 KiB buffer, so memory stays
// O(64 KiB × streams) regardless of object and chunk size. When w is a
// real *os.File and verification is off, chunks skip userspace entirely —
// the raw socket is handed to the file's ReadFrom and the kernel splice
// path moves the payload (Snapshot's KernelBytesDown counts the wins).
//
// With Options.VerifyTransfers, every chunk is tee'd through an
// incremental digest as it streams, in the algorithm of the server's
// checksum (crc32c where the server speaks it, adler32 where that is all it
// offers); the per-chunk sums combine into the whole-object value, verified
// against the server's checksum at zero extra reads. A mismatch fails the
// download with ErrChecksumMismatch naming the offending byte span.
// Per-chunk Want-Digest — which makes the server hash each range before
// its first body byte — stays off the hot path when the whole-object
// checksum combines and there is a single replica; it is used inline when
// chunks can fail over between replicas (a corrupt replica then costs one
// retry, not the transfer) or when the server checksum cannot combine
// (md5). On a whole-object mismatch the offending chunk is localized
// after the fact with payload-free HEAD+Range+Want-Digest probes.
//
// Chunks are spread over the Metalink replicas when one is available;
// without one they all stream from the primary, still in parallel over
// MaxStreams pooled connections. Chunks complete out of order, so w's
// WriteAt must tolerate concurrent disjoint writes (os.File does). Returns
// the object size written.
func (c *Client) DownloadMultiStreamTo(ctx context.Context, host, path string, w io.WriterAt) (int64, error) {
	var ml *metalink.Metalink
	if c.opts.Strategy != StrategyNone {
		ml, _ = c.GetMetalink(ctx, host, path) // best effort: primary-only without one
	}
	plan, err := c.planDownload(ctx, host, path, ml)
	if err != nil {
		return 0, err
	}
	return c.fetchChunks(ctx, plan, w)
}

// fetchChunks is the fetch/verify/commit stage of every multi-stream
// download: it streams plan's chunks into w, verifies them as
// DownloadMultiStreamTo documents, and returns the object size written.
func (c *Client) fetchChunks(ctx context.Context, plan downloadPlan, w io.WriterAt) (int64, error) {
	replicas, size, path := plan.replicas, plan.size, plan.replicas[0].Path
	if size == 0 {
		return 0, nil
	}

	verify := c.opts.VerifyTransfers
	algo := digest.Default
	var want digest.Checksum
	var wantSum uint32
	haveWant := false
	if verify && plan.want != "" {
		var err error
		if want, err = digest.Parse(plan.want); err != nil {
			if errors.Is(err, digest.ErrUnsupported) {
				return 0, fmt.Errorf("%w: %s: %v", ErrChecksumUnsupported, path, err)
			}
			return 0, fmt.Errorf("davix: %s: bad server checksum: %w", path, err)
		}
		if digest.Combinable(want.Algo) {
			algo = want.Algo
			wantSum = binary.BigEndian.Uint32(want.Sum)
			haveWant = true
		}
		// Order-dependent algorithms (md5) cannot combine across parallel
		// chunks; those fall back to per-chunk Want-Digest verification
		// under the client's preferred 32-bit algorithm.
	}
	// Per-chunk server digests cost the server a pre-body hash of every
	// range; only pay that when the inline comparison buys something the
	// rollup cannot give: corrupt-replica failover mid-transfer, or any
	// verification at all when the server checksum does not combine.
	perChunk := verify && (!haveWant || len(replicas) > 1)

	// Checkpointed resume: journal completed chunks to the sidecar and skip
	// the chunks a previous interrupted run already proved intact on disk.
	// Journaling needs per-chunk digests, so it forces the tee on (and the
	// kernel splice path off) even when verification is otherwise disabled.
	ck, skip := c.downloadCheckpoint(w, path, size, algo, plan.want)
	led := &chunkLedger{ck: ck}
	if verify {
		led.rollup, _ = digest.NewRollup(algo)
	}

	// The kernel fast path needs a real file target and no digest tee.
	fastName := ""
	if f, ok := w.(*os.File); ok && !led.wantsSums() {
		fastName = f.Name()
	}

	var verifiedChunks atomic.Int64
	err := c.forEachChunk(ctx, 0, size, c.opts.MaxStreams, func(cctx context.Context, idx int, off, ln int64) error {
		if sum, ok := skip[off]; ok {
			// Proven intact against its journaled digest — already on disk.
			led.note(off, ln, sum)
			return nil
		}
		res, err := c.scatterChunkReplicas(cctx, replicas, idx, off, ln, w, fastName, algo, led.wantsSums(), perChunk)
		if err != nil {
			return err
		}
		if res.summed {
			led.record(off, ln, res.sum)
		}
		if res.verified {
			verifiedChunks.Add(1)
		}
		return nil
	})
	if err != nil {
		led.close(true)
		return 0, err
	}
	if led.rollup != nil && haveWant {
		got, rerr := led.rollup.Sum(size)
		if rerr != nil {
			led.close(true)
			return 0, rerr
		}
		if got != wantSum {
			c.metrics.checksumMismatches.Add(1)
			// The journal vouched for bytes the rollup just condemned —
			// none of it can be believed; the next attempt starts clean.
			led.close(false)
			// Narrow the blame to a chunk when a server will commit to
			// per-range digests — HEAD probes only, no payload re-reads.
			if ce := c.localizeMismatch(ctx, replicas, path, algo, led.rollup.Spans()); ce != nil {
				return 0, ce
			}
			return 0, &ChecksumError{
				Path: path, Algo: string(algo), Off: 0, Length: size,
				Got:  fmt.Sprintf("%08x", got),
				Want: fmt.Sprintf("%08x", wantSum),
			}
		}
		c.verified(obs.Down, path, algo)
	} else if mem, ok := w.(*chunkBuf); ok && verify && plan.want != "" {
		// The server checksum is order-dependent (md5): the rollup cannot
		// fold it, and the per-range Digests above only vouch for what each
		// replica itself holds. An in-memory sink still has the whole
		// object, so hashing it costs no extra read.
		if err := verifyChecksum(mem.buf, plan.want, path); err != nil {
			c.metrics.checksumMismatches.Add(1)
			return 0, err
		}
		c.verified(obs.Down, path, want.Algo)
	} else if led.rollup != nil && verifiedChunks.Load() == int64(len(led.rollup.Spans())) {
		// No combinable server checksum, but every chunk matched the
		// server's per-range Digest — the transfer is end-to-end verified.
		c.verified(obs.Down, path, algo)
	}
	led.close(false) // complete: the sidecar has served its purpose
	return size, nil
}

// CopyStream copies srcHost/srcPath to destURL through this client: the
// pull-mode third-party copy that complements the push-mode Copy. Ranged
// GETs from the source (with Metalink replica failover) are pipelined into
// Content-Range PUTs at the destination through pooled buffers, with the
// in-flight window bounded by Options.UploadParallelism — the object is
// never materialized in client memory. The first chunk probes the
// destination: it resolves the head-node redirect once for every sibling
// and detects ranged-PUT support. Destinations that reject ranged PUTs
// (and UploadParallelism=1) instead stream the chunks sequentially through
// one ordinary PUT — still O(chunk) memory.
func (c *Client) CopyStream(ctx context.Context, srcHost, srcPath, destURL string) error {
	dHost, dPath, err := metalink.SplitURL(destURL)
	if err != nil {
		return fmt.Errorf("davix: bad destination URL %q: %w", destURL, err)
	}
	if dHost == "" {
		return errors.New("davix: empty host in destination URL")
	}

	var inf Info
	err = c.withFailover(ctx, srcHost, srcPath, func(r Replica) error {
		var err error
		inf, err = c.Stat(ctx, r.Host, r.Path)
		return err
	})
	if err != nil {
		return err
	}
	if inf.Dir {
		return fmt.Errorf("davix: copy %s: is a collection", srcPath)
	}
	size := inf.Size
	if size == 0 {
		return c.Put(ctx, dHost, dPath, nil)
	}
	replicas := c.replicasFor(ctx, srcHost, srcPath)

	cs := c.opts.ChunkSize
	nChunks := int((size + cs - 1) / cs)
	par := c.uploadParallelism(nChunks)
	if par <= 1 || nChunks <= 1 {
		return c.copyStreamPipe(ctx, replicas, dHost, dPath, size)
	}

	// The source Stat's checksum (when its server reported one) is the
	// ground truth the destination must match if commit verification runs.
	want := inf.Checksum
	return c.multiStreamPut(ctx, dHost, dPath, size, par,
		func(cctx context.Context, idx int, off, ln int64) (func() io.Reader, func(), error) {
			buf := bufpool.Get(int(ln))
			if err := c.readChunkInto(cctx, replicas, idx, off, buf); err != nil {
				bufpool.Put(buf)
				return nil, nil, err
			}
			return func() io.Reader { return bytes.NewReader(buf) }, func() { bufpool.Put(buf) }, nil
		},
		func() error { return c.copyStreamPipe(ctx, replicas, dHost, dPath, size) },
		func(digest.Algo) string { return want },
		nil)
}

// readChunkInto fetches chunk idx covering [off, off+len(buf)) into buf
// through the chunk pipeline — the pull copy's source read.
func (c *Client) readChunkInto(ctx context.Context, replicas []Replica, idx int, off int64, buf []byte) error {
	_, err := c.scatterChunkReplicas(ctx, replicas, idx, off, int64(len(buf)), &chunkBuf{base: off, buf: buf}, "", "", false, false)
	return err
}

// copyStreamPipe pulls the source sequentially, chunk by pooled chunk,
// into a pipe feeding one streaming PUT at the destination — the serial
// mode of the pull copy and the fallback for destinations without ranged
// PUT. Memory stays O(chunk); the object is never assembled.
func (c *Client) copyStreamPipe(ctx context.Context, replicas []Replica, dHost, dPath string, size int64) error {
	pr, pw := io.Pipe()
	go func() {
		cs := c.opts.ChunkSize
		var err error
		for off := int64(0); off < size; off += cs {
			ln := min(cs, size-off)
			buf := bufpool.Get(int(ln))
			if err = c.readChunkInto(ctx, replicas, int(off/cs), off, buf); err == nil {
				_, err = pw.Write(buf)
			}
			bufpool.Put(buf)
			if err != nil {
				break
			}
		}
		pw.CloseWithError(err)
	}()
	err := c.PutReader(ctx, dHost, dPath, pr, size)
	// Unblock the producer if the PUT failed before draining the pipe.
	pr.CloseWithError(errors.New("davix: copy aborted"))
	return err
}
