package core

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"slices"
	"sync/atomic"

	"godavix/internal/digest"
	"godavix/internal/obs"
	"godavix/internal/rangev"
	"godavix/internal/wire"
)

// defaultUploadParallelism is the chunk fan-out used when
// Options.UploadParallelism is zero, capped by Options.MaxPerHost.
const defaultUploadParallelism = 4

// uploadProbeLen caps the first slice of a multi-stream upload. The probe
// must complete before the siblings launch (it discovers the redirect
// target and ranged-PUT support), so it carries at most this much data —
// its round trip costs O(RTT), not O(chunk), keeping the serial prefix of
// the upload negligible.
const uploadProbeLen = 64 << 10

// newUploadID mints the X-Upload-Id chunked uploads carry so the server
// can keep concurrent uploads to the same path in separate assemblies.
func newUploadID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return ""
	}
	return hex.EncodeToString(b[:])
}

// PutReader streams size bytes from r to host/path without materializing
// the body: the engine sends it behind Expect: 100-continue, so head-node
// redirects arrive before any body byte leaves the client and the
// (non-seekable) reader is never consumed by an aborted hop. size < 0
// streams with chunked transfer encoding for sources of unknown length.
// The upload gets every engine rule — cancellation, host health, credential
// scoping across hops — except retries: its body cannot be read twice.
//
// The body leaves through the pooled 64 KiB copy buffer (counted in
// Metrics.PooledBytesUp). With Options.VerifyTransfers it is also tee'd
// through an incremental digest as it streams, under every algorithm in
// digest.Preference, which the request offers: the body leaves before any
// reply could name one. The digest under the algorithm the committing 2xx's
// Digest header names is compared against it — a mismatch fails with
// ErrChecksumMismatch at zero extra reads.
func (c *Client) PutReader(ctx context.Context, host, path string, r io.Reader, size int64) error {
	if size == 0 {
		return c.Put(ctx, host, path, nil)
	}
	body := r
	var sums *bodySums
	if c.opts.VerifyTransfers && size > 0 {
		sums = newBodySums("")
		body = io.TeeReader(r, sums)
	}
	return c.exec(ctx, host, path, specPutStream, func(hst, p string) *wire.Request {
		req := wire.NewRequest("PUT", hst, p)
		req.Body, req.ContentLength = body, size
		if sums != nil {
			req.Header.Set("Want-Digest", digest.Preference)
		}
		return req
	}, func(_ Replica, resp *Response) error {
		return c.finishPut(resp, path, size, sums)
	})
}

// finishPut consumes a whole-body PUT's response (status check, body
// drain, connection recycle) and, when sums is non-nil, holds the size
// bytes' sums against the Digest its 2xx echoes.
func (c *Client) finishPut(resp *Response, path string, size int64, sums *bodySums) error {
	if resp.StatusCode/100 != 2 {
		return statusErr(resp, "PUT", path)
	}
	echoed := resp.Header.Get("Digest")
	if _, err := resp.ReadAllAndClose(); err != nil || sums == nil {
		return err
	}
	algo, sent := sums.named(echoed)
	return c.checkEcho(path, 0, size, algo, sent, echoed, true)
}

// bodySums hashes a request body as it streams: under algo, the one a
// destination has already named, or — with algo "" for a body that leaves
// before any reply, PutReader's or a chunked upload's probe — under every
// algorithm in digest.Offered.
type bodySums struct {
	algos []digest.Algo
	hs    []hash.Hash32
}

func newBodySums(algo digest.Algo) *bodySums {
	b := &bodySums{algos: []digest.Algo{algo}}
	if algo == "" {
		b.algos = digest.Offered[:]
	}
	for _, a := range b.algos {
		b.hs = append(b.hs, digest.New32(a))
	}
	return b
}

func (b *bodySums) Write(p []byte) (int, error) {
	for _, h := range b.hs {
		h.Write(p)
	}
	return len(p), nil
}

// named returns the algorithm, of those summed, that a server's Digest
// reply names, with the body's sum under it. A reply naming none gets the
// last — of digest.Offered that is adler32, all that DPM and dCache speak:
// the fallback for peers that negotiate nothing.
func (b *bodySums) named(echoed string) (digest.Algo, uint32) {
	named, _ := digest.FromDigestHeader(echoed, "")
	i := slices.Index(b.algos, named.Algo)
	if i < 0 {
		i = len(b.algos) - 1
	}
	return b.algos[i], b.hs[i].Sum32()
}

// checkEcho holds sent, the client's digest under algo of the length bytes
// at off it sent, against the entry under algo of echoed, the Digest header
// the server answered them with: its account of what it received. A server
// that echoes no such entry leaves the span unverified, not failed; a match
// on a whole upload's commit counts it verified — the upload's integrity
// loop closed at zero extra reads.
func (c *Client) checkEcho(path string, off, length int64, algo digest.Algo, sent uint32, echoed string, whole bool) error {
	stored, ok := digest.FromDigestHeader(echoed, algo)
	switch {
	case !ok:
	case sent != binary.BigEndian.Uint32(stored.Sum):
		c.metrics.checksumMismatches.Add(1)
		return &ChecksumError{
			Path: path, Algo: string(algo), Off: off, Length: length,
			Got:  fmt.Sprintf("%08x", sent),
			Want: hex.EncodeToString(stored.Sum),
		}
	case whole:
		c.verified(obs.Up, path, algo)
	}
	return nil
}

// UploadMultiStream stores size bytes from src at host/path by splitting
// the object into Options.ChunkSize chunks and PUTting them concurrently
// with Content-Range headers over pooled connections — the write-side twin
// of the §2.4 multi-stream download. The first chunk doubles as a probe:
// it resolves the head-node redirect target (reused by every sibling, so
// the redirect round trip is paid once) and detects ranged-PUT support. A
// destination that rejects ranged PUTs (RFC 9110 requires 400 from origins
// that cannot honour Content-Range on PUT) degrades transparently to the
// single-stream path. With UploadParallelism=1 the request is
// byte-identical on the wire to Put — the paper-faithful serial upload.
func (c *Client) UploadMultiStream(ctx context.Context, host, path string, src io.ReaderAt, size int64) error {
	if size < 0 {
		return errors.New("davix: UploadMultiStream needs a known size")
	}
	if size == 0 {
		return c.Put(ctx, host, path, nil)
	}
	// No chunk is ever staged in memory: each send streams its slice of src
	// through the wire layer's one pooled 64 KiB buffer.
	open := func(_ context.Context, _ int, off, ln int64) (func() io.Reader, func(), error) {
		return func() io.Reader { return io.NewSectionReader(src, off, ln) }, func() {}, nil
	}
	return c.multiStreamPut(ctx, host, path, size,
		open,
		func() error { return c.putSerial(ctx, host, path, src, size) },
		func(algo digest.Algo) string { return sourceChecksum(src, size, algo) },
		src)
}

// chunkBodies opens the chunk covering [off, off+ln) of an upload; idx
// numbers it for the source's own load spreading. body is then called once
// per send — each redirect hop and each retry asks again — and every call
// returns a fresh reader over the same ln bytes; done releases whatever the
// chunk holds.
type chunkBodies func(ctx context.Context, idx int, off, ln int64) (body func() io.Reader, done func(), err error)

// multiStreamPut drives the shared orchestration of every chunked upload
// (UploadMultiStream and the pull-mode CopyStream): a small probe slice
// resolves the redirect target and ranged-PUT support, the remaining
// chunks fan out over UploadParallelism workers streaming the bodies open
// supplies, and the commit is checked: against the Digest of the 201
// Created that assembled the object when verifying, else — when no chunk
// answered 201 — by verifyCommitted (wantChecksum supplies the expected
// content checksum under the algorithm the server reports, lazily).
// fallback, the serial single-stream path, runs instead when that width
// resolves to one worker (one chunk, or UploadParallelism=1) and when the
// destination rejects ranged PUTs.
//
// Inline integrity: with VerifyTransfers (or a journal to keep) every chunk
// body is hashed as it streams to the socket, and every chunk PUT offers
// digest.Preference. The probe is hashed under each offered algorithm; the
// one its reply names — crc32c from a current gateway, adler32 from a peer
// that names none — is then the algorithm of every later chunk, of each
// chunk's 202 receipt check, of the whole-object rollup, of the journal and
// of the commit comparison. A receipt that disagrees with the client's sum
// fails the upload naming that chunk's span.
//
// resumeSrc, when a plain file and Options.Resume is on, enables the
// checkpoint journal: completed chunks are journaled, an interrupted
// upload resumed later re-verifies them against the current source bytes
// and re-sends only the rest under the journaled upload id, and a resume
// whose server-side partial assembly has meanwhile been reaped detects the
// phantom (no commit signal) and re-uploads from scratch once.
func (c *Client) multiStreamPut(ctx context.Context, host, path string, size int64,
	open chunkBodies,
	fallback func() error,
	wantChecksum func(digest.Algo) string,
	resumeSrc io.ReaderAt) error {

	cs := c.opts.ChunkSize
	par := c.parallelism(c.opts.UploadParallelism, defaultUploadParallelism, int((size+cs-1)/cs))
	if par <= 1 {
		return fallback()
	}
	probeLen := min(uploadProbeLen, cs, size)
	ck, recs, hdr := c.uploadCheckpoint(resumeSrc, host, path, size, newUploadID())
	led, uploadID := &chunkLedger{ck: ck}, hdr.id
	summing := c.opts.VerifyTransfers || ck != nil

	// commit is the Digest header of the 201 Created that assembled the
	// object; nil while every chunk so far was merely received (202).
	var commit atomic.Pointer[string]
	// putChunk sends [off, off+ln) to tHost/tPath, summed (when summing)
	// under algo ("" for every offered one). srcIdx numbers the chunk for
	// the body source, traceIdx for the trace (the probe is chunk 0).
	putChunk := func(cctx context.Context, srcIdx, traceIdx int, tHost, tPath string, off, ln int64, algo digest.Algo) (rangedPutResult, error) {
		body, done, err := open(cctx, srcIdx, off, ln)
		if err != nil {
			return rangedPutResult{}, err
		}
		defer done()
		c.opts.Trace.EmitChunkStart(obs.Up, path, traceIdx, off, ln)
		res, err := c.putRanged(cctx, tHost, tPath, body, off, ln, size, uploadID, summing, algo)
		c.opts.Trace.EmitChunkDone(obs.Up, path, traceIdx, off, ln, err)
		if err != nil {
			return res, err
		}
		c.recordPayload(obs.Up, ln)
		if res.created {
			commit.Store(&res.digest)
		}
		return res, nil
	}

	// Only the destination's PUT verdict feeds the fallback classification
	// — a failure to open the chunk source surfaces as-is (the fallback
	// would just re-fail on it).
	probe, err := putChunk(ctx, 0, 0, host, path, 0, probeLen, "")
	if err != nil {
		if rangedPutUnsupported(err) {
			// The serial fallback does not journal and commits in one
			// request — an old journal would only mislead a later resume.
			led.close(false)
			c.metrics.uploadsFellBackSerial.Add(1)
			c.opts.Trace.EmitUploadFellBackSerial(path, err)
			return fallback()
		}
		led.close(true)
		return err
	}
	algo := probe.algo
	var skip map[int64]uint32
	if ck != nil {
		skip = c.bindUploadJournal(ck, recs, hdr, algo, resumeSrc, probeLen, path)
	}
	// The per-chunk sums combine into the whole-object digest: what the
	// server's commit Digest is held against, in place of wantChecksum's
	// lazy re-read of the entire source.
	if c.opts.VerifyTransfers {
		led.rollup, _ = digest.NewRollup(algo)
	}
	// Noted, never journaled: every attempt re-sends the probe.
	led.note(0, probeLen, probe.sum)

	err = c.forEachChunk(ctx, probeLen, size, par, func(cctx context.Context, idx int, off, ln int64) error {
		if sum, ok := skip[off]; ok {
			// The journal proved the server already received these source
			// bytes under the resumed upload id.
			led.note(off, ln, sum)
			return nil
		}
		res, err := putChunk(cctx, idx, idx+1, probe.host, probe.path, off, ln, algo)
		if err != nil {
			return err
		}
		if led.wantsSums() {
			led.record(off, ln, res.sum)
		}
		return nil
	})
	if err != nil {
		led.close(true)
		return err
	}
	checksum := ""
	var sent uint32
	if led.rollup != nil {
		if sent, err = led.rollup.Sum(size); err != nil {
			led.close(true)
			return err
		}
		checksum = digest.Format32(algo, sent)
		wantChecksum = func(digest.Algo) string { return checksum }
	}
	stored := commit.Load()
	if stored == nil {
		err := c.verifyCommitted(ctx, host, path, size, wantChecksum)
		if err != nil && errors.Is(err, errUploadNotCommitted) && len(skip) > 0 {
			// The server-side partial assembly the journal pointed at is
			// gone (TTL sweep, restart): self-heal with one clean
			// journal-free re-upload instead of surfacing the phantom.
			led.close(false)
			return c.multiStreamPut(ctx, host, path, size, open, fallback, wantChecksum, nil)
		}
		led.close(err != nil)
		return err
	}
	// The object is committed either way: the journal has nothing left to
	// resume.
	led.close(false)
	if led.rollup != nil {
		if err := c.checkEcho(path, 0, size, algo, sent, *stored, true); err != nil {
			// The committing chunk had no receipt to check: narrow the
			// blame with payload-free HEAD+Range probes of what was stored.
			if ce := c.localizeMismatch(ctx, []Replica{{Host: host, Path: path}}, path, algo, led.rollup.Spans()); ce != nil {
				return ce
			}
			return err
		}
	}
	return nil
}

// errUploadNotCommitted marks a chunked upload whose final object never
// assembled on the server — the resume path uses it to tell a reaped
// partial assembly from a transport failure.
var errUploadNotCommitted = errors.New("davix: upload not committed")

// sourceChecksum renders the WLCG-style checksum of the upload source under
// algo, for commit verification ("" when the source cannot be re-read or
// algo is unknown).
func sourceChecksum(src io.ReaderAt, size int64, algo digest.Algo) string {
	h, err := digest.New(algo)
	if err == nil {
		_, err = io.Copy(h, io.NewSectionReader(src, 0, size))
	}
	if err != nil {
		return ""
	}
	return digest.Checksum{Algo: algo, Sum: h.Sum(nil)}.String()
}

// verifyCommitted confirms a chunked upload actually assembled into the
// final object when no chunk answered 201 Created: per-chunk 202s only
// acknowledge receipt, and a server that dropped the partial assembly
// (restart, idle sweep, a concurrent whole-body PUT abandoning it) would
// otherwise yield a phantom success. Size alone cannot tell a committed
// upload from a same-size predecessor it was meant to overwrite, so when
// the server reports a checksum it is compared against wantChecksum —
// computed lazily, since this whole path only runs when no commit signal
// arrived.
func (c *Client) verifyCommitted(ctx context.Context, host, path string, size int64, wantChecksum func(digest.Algo) string) error {
	inf, err := c.statReplica(ctx, host, path)
	if err != nil {
		return fmt.Errorf("davix: upload verification: %w", err)
	}
	if inf.Size != size {
		return fmt.Errorf("%w: server reports %d bytes, want %d", errUploadNotCommitted, inf.Size, size)
	}
	if got, perr := digest.Parse(inf.Checksum); perr == nil && wantChecksum != nil {
		if want, werr := digest.Parse(wantChecksum(got.Algo)); werr == nil && want.Algo == got.Algo {
			if !bytes.Equal(want.Sum, got.Sum) {
				c.metrics.checksumMismatches.Add(1)
				return fmt.Errorf("%w: %w", errUploadNotCommitted, &ChecksumError{
					Path: path, Algo: string(got.Algo), Off: 0, Length: size,
					Got: hex.EncodeToString(got.Sum), Want: hex.EncodeToString(want.Sum),
				})
			}
			c.verified(obs.Up, path, got.Algo)
		}
	}
	return nil
}

// putSerial is the seed's whole-body PUT fed from a ReaderAt: one request,
// one connection, Content-Length framing — byte-identical on the wire to
// Put, and replayable across redirect hops because the source is seekable.
// With Options.VerifyTransfers it offers Want-Digest and holds the echo
// against the body's sums, like PutReader; each send sums afresh, since
// each hop replays the body from its start.
func (c *Client) putSerial(ctx context.Context, host, path string, src io.ReaderAt, size int64) error {
	var sums *bodySums
	return c.exec(ctx, host, path, specPut, func(h, p string) *wire.Request {
		req := wire.NewRequest("PUT", h, p)
		req.Body = io.NewSectionReader(src, 0, size)
		req.ContentLength = size
		if c.opts.VerifyTransfers && size > 0 {
			sums = newBodySums("")
			req.Body = io.TeeReader(req.Body, sums)
			req.Header.Set("Want-Digest", digest.Preference)
		}
		return req
	}, func(_ Replica, resp *Response) error {
		return c.finishPut(resp, path, size, sums)
	})
}

// rangedPutResult reports one Content-Range PUT: the redirect-resolved
// target (so sibling chunks go there directly), whether the server answered
// 201 Created — the commit signal distinguishing "assembled into the final
// object" from a 202 per-chunk receipt — with the Digest header that came
// with it, and the digest of the body as sent under the algorithm that
// header named (when asked for).
type rangedPutResult struct {
	host, path string
	created    bool
	digest     string
	algo       digest.Algo
	sum        uint32
}

// putRanged PUTs the ln bytes body yields as the [off, off+ln) slice of a
// total-byte object (Content-Range PUT), following redirects. body is
// called for every send, so a redirected or retried chunk streams — and,
// with sum, hashes under algo ("" for every offered one) — from its first
// byte again; the sum reported is that of the send the server accepted, and a 202 receipt
// whose Digest disagrees with it fails the chunk with a *ChecksumError
// naming its span. uploadID, when non-empty, travels as X-Upload-Id so the
// server keeps concurrent uploads to one path in separate assemblies.
func (c *Client) putRanged(ctx context.Context, host, path string, body func() io.Reader, off, ln, total int64, uploadID string, sum bool, algo digest.Algo) (rangedPutResult, error) {
	cr := string(rangev.AppendContentRange(make([]byte, 0, 64), off, ln, total))
	var res rangedPutResult
	var sums *bodySums
	err := c.exec(ctx, host, path, specPutRange, func(hst, p string) *wire.Request {
		req := wire.NewRequest("PUT", hst, p)
		req.Header.Set("Content-Range", cr)
		if uploadID != "" {
			req.Header.Set("X-Upload-Id", uploadID)
		}
		req.Body, req.ContentLength = body(), ln
		if sum {
			sums = newBodySums(algo)
			req.Body = io.TeeReader(req.Body, sums)
			req.Header.Set("Want-Digest", digest.Preference)
		}
		return req
	}, func(landed Replica, resp *Response) error {
		if resp.StatusCode/100 != 2 {
			return statusErr(resp, "PUT", path)
		}
		created, echoed := resp.StatusCode == 201, resp.Header.Get("Digest")
		if _, err := resp.ReadAllAndClose(); err != nil {
			return err
		}
		// The redirect-resolved target lets sibling chunks go straight to
		// the disk node the head node designated.
		res = rangedPutResult{host: landed.Host, path: landed.Path, created: created, digest: echoed}
		if sums == nil {
			return nil
		}
		res.algo, res.sum = sums.named(echoed)
		if created {
			return nil // the object's Digest, held against the rollup
		}
		return c.checkEcho(path, off, ln, res.algo, res.sum, echoed, false)
	})
	if err != nil {
		return rangedPutResult{}, err
	}
	return res, nil
}

// rangedPutUnsupported classifies err as "this server does not implement
// Content-Range on PUT" — the statuses compliant origins use to refuse a
// partial PUT — as opposed to a transient or semantic failure worth
// surfacing.
func rangedPutUnsupported(err error) bool {
	var se *StatusError
	if !errors.As(err, &se) {
		return false
	}
	switch se.Code {
	case 400, 405, 416, 501:
		return true
	}
	return false
}

// forEachChunk runs fn once per Options.ChunkSize chunk of the [start,
// size) byte range of an object: a fanOut over streams workers, whose first
// chunk error cancels the siblings.
func (c *Client) forEachChunk(ctx context.Context, start, size int64, streams int, fn func(ctx context.Context, idx int, off, ln int64) error) error {
	cs := c.opts.ChunkSize
	return fanOut(ctx, int((size-start+cs-1)/cs), streams, func(ctx context.Context, idx int) error {
		off := start + int64(idx)*cs
		return fn(ctx, idx, off, min(cs, size-off))
	})
}
