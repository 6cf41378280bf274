// Package httpserv implements the storage-server side of the paper's
// testbed: a DPM-like HTTP/1.1 + WebDAV front-end over a storage.Store.
//
// It intentionally builds on net/http: the paper's whole argument is that
// davix talks to *standard* HTTP services, so the server here is a stock
// HTTP stack while the client side is the custom optimized layer. What
// net/http still does: connections, request parsing, response framing, and
// — through http.ServeContent — every GET that carries a precondition header
// (If-Range, If-Match, ...). What is ours is the answer to every other GET
// and HEAD (serveBytes): the Range header is resolved with net/http's rules
// and the body — whole, one range, or multipart/byteranges in
// mime/multipart's framing — is written from the stored bytes themselves,
// where ServeContent copied them through a reader, a per-response buffer
// and, for multi-range, a pipe and a goroutine. ServeContent stays the
// oracle: a differential table and FuzzRangeResponder hold serveBytes to
// its status, headers and bytes. A knob disables keep-alive, to measure
// the Figure-2 effect.
package httpserv

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/textproto"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"godavix/internal/digest"
	"godavix/internal/metalink"
	"godavix/internal/obs"
	"godavix/internal/s3"
	"godavix/internal/storage"
	"godavix/internal/webdav"
)

// MetalinkProvider resolves the Metalink document for a namespace path.
// Returning nil means no replica information is available.
type MetalinkProvider func(path string) *metalink.Metalink

// Options configures a Server.
type Options struct {
	// DisableKeepAlive forces Connection: close on every response,
	// emulating an HTTP/1.0-era server (Figure 2 baseline).
	DisableKeepAlive bool

	// Metalinks, when set, answers Metalink negotiation (an Accept:
	// application/metalink+xml GET, or ?metalink) for any path.
	Metalinks MetalinkProvider

	// Redirect, when set, lets this server act as a DPM head node: data
	// operations (GET/HEAD/PUT) whose path it maps are answered with a
	// 302 to the disk node returned ("http://disk1:80/pool/f"); metadata
	// operations are always handled locally.
	Redirect func(method, path string) (location string, ok bool)

	// Authorize, when set, validates the Authorization header of every
	// request; a false return yields 401.
	Authorize func(authorization string) bool

	// Copier, when set, enables WebDAV third-party COPY: the server
	// pushes the source object to the URL in the Destination header
	// through this client (HTTP-TPC push mode, as deployed on the WLCG).
	// *core.Client satisfies this interface.
	Copier Copier

	// S3Secrets, when set, makes the server require a valid AWS SigV4
	// signature on every request; it maps access keys to secrets
	// (return "" for unknown keys).
	S3Secrets func(accessKey string) string

	// DisableRangedPut makes the server refuse PUTs carrying a
	// Content-Range header with 400, the RFC 9110 §14.4 behaviour of an
	// origin that does not implement partial PUTs. Used to exercise the
	// client's single-stream upload fallback.
	DisableRangedPut bool

	// Limits arms the gateway's overload defences: admission control,
	// per-client fairness, deadlines, stall protection. The zero value
	// keeps the historical unbounded test-fixture behaviour.
	Limits Limits

	// Trace, when set, receives gateway events (admissions, sheds,
	// slow-client kills, reaped assemblies). Nil is free.
	Trace *obs.ServerTrace
}

// Copier pushes an object to another storage server.
type Copier interface {
	// Put uploads data to path on host.
	Put(ctx context.Context, host, path string, data []byte) error
}

// Server is a DPM-like storage server.
type Server struct {
	store storage.Store
	opts  Options

	// partials assembles in-progress ranged (Content-Range) uploads, one
	// per path and upload id (the client's X-Upload-Id keeps concurrent
	// uploads to one path from interleaving into a corrupt blend), until
	// every byte of the declared total has arrived.
	partialMu sync.Mutex
	partials  map[partialKey]*partialUpload
	// janitorOn (under partialMu) records whether the TTL janitor
	// goroutine is running; it exits when the table empties or on Close.
	janitorOn bool

	// adm is the admission controller; nil when no limit is armed.
	adm *admission

	requests      atomic.Int64
	byMethod      sync.Map // method -> *atomic.Int64
	stallKills    atomic.Int64
	partialReaped atomic.Int64

	closeCh   chan struct{}
	closeOnce sync.Once
}

// Ranged-upload assembly bounds: total size and concurrent-assembly caps
// refuse runaway requests, and assemblies idle past partialTTL are swept
// when a new one is created — an aborted multi-stream upload cannot pin
// its buffer forever.
const (
	maxPartialTotal = 1 << 30
	maxPartials     = 64
	partialTTL      = time.Minute
)

// partialKey identifies one upload assembly: the target path plus the
// client's X-Upload-Id ("" when the client sent none).
type partialKey struct {
	path string
	id   string
}

// partialUpload is a ranged upload being assembled: the full-size buffer
// plus the sorted disjoint intervals already written, so out-of-order and
// overlapping chunks are both handled and commit happens exactly when the
// whole [0, total) range is covered.
type partialUpload struct {
	data      []byte
	intervals []ivl // sorted, non-overlapping
	covered   int64 // bytes the intervals cover
	// sums holds the digest each chunk's request computed over its own
	// bytes as they streamed in, under the algorithm the chunk that created
	// the assembly negotiated; commit combines them instead of hashing data
	// again.
	sums *digest.Rollup
	// dirty records that some byte of data may have been written more than
	// once (a duplicate, overlapping or retried chunk, or a body cut short):
	// sums then no longer describes data and commit hashes the whole
	// buffer instead.
	dirty bool
	// streaming lists the ranges chunk bodies are being read into right
	// now. No byte of data has two writers at once: a chunk overlapping
	// one of these waits on idle, signalled whenever a body finishes.
	streaming []ivl
	idle      *sync.Cond // on the server's partialMu
	// writers counts chunk bodies currently streaming into data; the
	// committing request waits for them so the zero-copy handoff to the
	// store never races a late duplicate's copy.
	writers sync.WaitGroup
	// active mirrors the writers count under partialMu so the idle sweep
	// never drops an assembly whose chunk body is still streaming.
	active int
	// lastTouch drives the idle sweep.
	lastTouch time.Time
}

type ivl struct{ start, end int64 } // [start, end)

func (a ivl) overlaps(b ivl) bool { return a.start < b.end && b.start < a.end }

// add merges [start, end) into the coverage set and reports the total
// number of bytes covered afterwards.
func (p *partialUpload) add(start, end int64) int64 {
	merged := make([]ivl, 0, len(p.intervals)+1)
	covered := int64(0)
	cur := ivl{start, end}
	placed := false
	for _, iv := range p.intervals {
		switch {
		case iv.end < cur.start:
			merged = append(merged, iv)
		case cur.end < iv.start:
			if !placed {
				merged = append(merged, cur)
				placed = true
			}
			merged = append(merged, iv)
		default: // overlap or touch: absorb into cur
			cur.start = min(cur.start, iv.start)
			cur.end = max(cur.end, iv.end)
		}
	}
	if !placed {
		merged = append(merged, cur)
	}
	p.intervals = merged
	for _, iv := range merged {
		covered += iv.end - iv.start
	}
	return covered
}

// New creates a Server over store.
func New(store storage.Store, opts Options) *Server {
	s := &Server{
		store:    store,
		opts:     opts,
		partials: make(map[partialKey]*partialUpload),
		closeCh:  make(chan struct{}),
	}
	if opts.Limits.admissionEnabled() {
		s.adm = newAdmission(opts.Limits, opts.Trace)
	}
	return s
}

// Close stops the Server's background maintenance (the partial-upload
// janitor). The Server keeps serving requests; abandoned assemblies are
// then only swept opportunistically on new-assembly creation.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.closeCh) })
}

// partialTTLValue is the configured assembly TTL (Limits.PartialTTL, else
// the historical one-minute default).
func (s *Server) partialTTLValue() time.Duration {
	if s.opts.Limits.PartialTTL > 0 {
		return s.opts.Limits.PartialTTL
	}
	return partialTTL
}

// Requests reports the total number of requests served.
func (s *Server) Requests() int64 { return s.requests.Load() }

// RequestsByMethod reports how many requests used the given method.
func (s *Server) RequestsByMethod(method string) int64 {
	v, ok := s.byMethod.Load(method)
	if !ok {
		return 0
	}
	return v.(*atomic.Int64).Load()
}

// Snapshot renders the server's counters in the exposition shape: total
// requests, per-method counts (sorted), and in-progress ranged-upload
// assemblies. Safe to call concurrently with in-flight requests.
func (s *Server) Snapshot() obs.Snapshot {
	type mc struct {
		method string
		n      int64
	}
	var methods []mc
	s.byMethod.Range(func(k, v any) bool {
		methods = append(methods, mc{k.(string), v.(*atomic.Int64).Load()})
		return true
	})
	sort.Slice(methods, func(i, j int) bool { return methods[i].method < methods[j].method })
	s.partialMu.Lock()
	partials := int64(len(s.partials))
	s.partialMu.Unlock()
	out := obs.Snapshot{Counters: []obs.Counter{
		{Name: "requests_total", Help: "HTTP requests served.", Value: s.requests.Load()},
	}}
	for _, m := range methods {
		out.Counters = append(out.Counters, obs.Counter{
			Name:  "requests_" + strings.ToLower(m.method) + "_total",
			Help:  "Requests served with method " + m.method + ".",
			Value: m.n,
		})
	}
	out.Counters = append(out.Counters, obs.Counter{
		Name: "partial_uploads", Help: "Ranged-upload assemblies currently in progress.",
		Value: partials, Gauge: true,
	}, obs.Counter{
		Name: "partial_reaped_total", Help: "Abandoned ranged-upload assemblies reaped by TTL.",
		Value: s.partialReaped.Load(),
	}, obs.Counter{
		Name: "stall_kills_total", Help: "Connections cut for stalling mid-body (slow loris).",
		Value: s.stallKills.Load(),
	})
	if a := s.adm; a != nil {
		a.mu.Lock()
		tracked := int64(len(a.clients))
		active := int64(0)
		for _, cs := range a.clients {
			if cs.inflight > 0 {
				active++
			}
		}
		a.mu.Unlock()
		out.Counters = append(out.Counters,
			obs.Counter{Name: "inflight", Help: "Requests currently executing.",
				Value: a.inflight.Load(), Gauge: true},
			obs.Counter{Name: "admission_queue", Help: "Requests waiting for an in-flight slot.",
				Value: a.queued.Load(), Gauge: true},
			obs.Counter{Name: "admitted_total", Help: "Requests admitted.",
				Value: a.admittedTotal.Load()},
			obs.Counter{Name: "admitted_queued_total", Help: "Admitted requests that waited in the queue.",
				Value: a.admittedQueued.Load()},
			obs.Counter{Name: "shed_total", Help: "Requests shed with 503.",
				Value: a.shedTotal()},
			obs.Counter{Name: "shed_capacity_total", Help: "Sheds for global capacity (queue full or queue deadline).",
				Value: a.shedByReason[0].Load()},
			obs.Counter{Name: "shed_client_concurrency_total", Help: "Sheds for the per-client concurrency cap.",
				Value: a.shedByReason[1].Load()},
			obs.Counter{Name: "shed_client_rate_total", Help: "Sheds for the per-client rate limit.",
				Value: a.shedByReason[2].Load()},
			obs.Counter{Name: "clients_tracked", Help: "Clients in the fairness table.",
				Value: tracked, Gauge: true},
			obs.Counter{Name: "clients_active", Help: "Clients with at least one request in flight.",
				Value: active, Gauge: true},
		)
	}
	return out
}

// Serve runs an HTTP server on l until the listener is closed.
func (s *Server) Serve(l net.Listener) error {
	return s.ServeHandler(l, s)
}

// ServeHandler runs an HTTP server on l with h as the root handler —
// normally this Server wrapped in observability middleware (access log,
// debug endpoints). Keep-alive policy follows Options.DisableKeepAlive, and
// the header-read deadline Limits.BodyStallTimeout, regardless of the
// wrapping.
func (s *Server) ServeHandler(l net.Listener, h http.Handler) error {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: s.opts.Limits.BodyStallTimeout,
	}
	srv.SetKeepAlivesEnabled(!s.opts.DisableKeepAlive)
	err := srv.Serve(l)
	if errors.Is(err, net.ErrClosed) || errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ServeHTTP implements http.Handler: the overload-defence layer (admission,
// deadlines, stall protection) wrapped around the WebDAV dispatch.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	v, _ := s.byMethod.LoadOrStore(r.Method, &atomic.Int64{})
	v.(*atomic.Int64).Add(1)

	// Admission first: a shed request costs one header parse and a 503 —
	// it never allocates buffers, touches the store, or holds a slot.
	if s.adm != nil {
		release, reason, ra, ok := s.adm.admit(r.Context(), clientKey(r))
		if !ok {
			w.Header().Set("Retry-After", retryAfterHeader(ra))
			http.Error(w, "overloaded: "+reason, http.StatusServiceUnavailable)
			return
		}
		defer release()
	}

	lim := s.opts.Limits
	if lim.RequestBudget > 0 {
		// Whole-request budget: cancels downstream work (TPC pushes honour
		// the context) and arms the connection write deadline so a response
		// cannot dribble to an undraining client forever. The deadline is
		// disarmed on the way out so keep-alive reuse is unaffected.
		ctx, cancel := context.WithTimeout(r.Context(), lim.RequestBudget)
		defer cancel()
		r = r.WithContext(ctx)
		rc := http.NewResponseController(w)
		_ = rc.SetWriteDeadline(time.Now().Add(lim.RequestBudget))
		defer rc.SetWriteDeadline(time.Time{})
	}
	if lim.BodyStallTimeout > 0 && r.Body != nil && bodiedMethod(r.Method) {
		var budget time.Time
		if lim.RequestBudget > 0 {
			budget = time.Now().Add(lim.RequestBudget)
		}
		r.Body = &stallReader{
			body:   r.Body,
			ctrl:   http.NewResponseController(w),
			stall:  lim.BodyStallTimeout,
			budget: budget,
			srv:    s,
			client: clientKey(r),
		}
	}

	s.handle(w, r)
}

// bodiedMethod reports whether requests of this method carry a body the
// stall guard should watch.
func bodiedMethod(m string) bool {
	switch m {
	case http.MethodPut, http.MethodPost, http.MethodPatch, "PROPFIND":
		return true
	}
	return false
}

// handle is the WebDAV dispatch under the defence layer.
func (s *Server) handle(w http.ResponseWriter, r *http.Request) {
	p := storage.Clean(r.URL.Path)

	if s.opts.Authorize != nil && !s.opts.Authorize(r.Header.Get("Authorization")) {
		w.Header().Set("WWW-Authenticate", `Bearer realm="godavix", Basic realm="godavix"`)
		http.Error(w, "unauthorized", http.StatusUnauthorized)
		return
	}
	if s.opts.S3Secrets != nil {
		err := s3.VerifyRequest(r.Method, r.URL.RequestURI(), r.Host,
			r.Header.Get("Authorization"), r.Header.Get("X-Amz-Date"),
			r.Header.Get("X-Amz-Content-Sha256"), s.opts.S3Secrets, time.Now(), 0)
		if err != nil {
			http.Error(w, "signature verification failed: "+err.Error(), http.StatusForbidden)
			return
		}
	}

	if s.opts.DisableKeepAlive {
		w.Header().Set("Connection", "close")
	}

	// DPM head-node behaviour: hand data operations off to disk nodes.
	if s.opts.Redirect != nil && !wantsMetalink(r) {
		switch r.Method {
		case http.MethodGet, http.MethodHead, http.MethodPut:
			if loc, ok := s.opts.Redirect(r.Method, p); ok {
				w.Header().Set("Location", loc)
				w.WriteHeader(http.StatusFound)
				return
			}
		}
	}

	switch r.Method {
	case http.MethodGet, http.MethodHead:
		s.serveGet(w, r, p)
	case http.MethodPut:
		s.servePut(w, r, p)
	case "COPY":
		s.serveCopy(w, r, p)
	case "MOVE":
		s.serveMove(w, r, p)
	case http.MethodDelete:
		s.serveDelete(w, p)
	case "MKCOL":
		s.serveMkcol(w, p)
	case "PROPFIND":
		s.servePropfind(w, r, p)
	case http.MethodOptions:
		w.Header().Set("Allow", "OPTIONS, GET, HEAD, PUT, DELETE, MKCOL, PROPFIND, COPY, MOVE")
		w.Header().Set("DAV", "1")
		w.WriteHeader(http.StatusOK)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// wantsMetalink reports whether the request negotiates a Metalink document.
func wantsMetalink(r *http.Request) bool {
	if r.URL.Query().Has("metalink") {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), metalink.MediaType)
}

func (s *Server) serveGet(w http.ResponseWriter, r *http.Request, p string) {
	if s.opts.Metalinks != nil && wantsMetalink(r) {
		if ml := s.opts.Metalinks(p); ml != nil {
			body, err := metalink.Encode(ml)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", metalink.MediaType)
			w.Header().Set("Content-Length", fmt.Sprint(len(body)))
			w.WriteHeader(http.StatusOK)
			if r.Method != http.MethodHead {
				w.Write(body)
			}
			return
		}
		http.Error(w, "no metalink available", http.StatusNotFound)
		return
	}

	data, inf, err := s.store.Get(p)
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	serveBytes(w, r, inf, data)
}

// span is one resolved byte range of an object: body[start:end].
type span struct{ start, end int64 }

// Range resolution errors; the texts are the ones net/http answers with.
var (
	errInvalidRange = errors.New("invalid range")
	errNoOverlap    = errors.New("invalid range: failed to overlap")
)

// parseRange resolves a Range header against an object of size bytes with
// net/http's rules (its parseRange is unexported; TestRangeResponderMatchesStdlib
// and FuzzRangeResponder hold this one to it): suffix ranges, ends clamped to
// the object, ranges starting past the end skipped, errNoOverlap when those
// were all there was. The spans are appended to dst.
func parseRange(s string, size int64, dst []span) ([]span, error) {
	if s == "" {
		return dst, nil
	}
	list, ok := strings.CutPrefix(s, "bytes=")
	if !ok {
		return nil, errInvalidRange
	}
	noOverlap := false
	for more := true; more; {
		var ra string
		ra, list, more = strings.Cut(list, ",")
		if ra = textproto.TrimString(ra); ra == "" {
			continue
		}
		first, last, ok := strings.Cut(ra, "-")
		if !ok {
			return nil, errInvalidRange
		}
		first, last = textproto.TrimString(first), textproto.TrimString(last)
		if first == "" {
			// Suffix range: the last n bytes.
			if last == "" || last[0] == '-' {
				return nil, errInvalidRange
			}
			n, err := strconv.ParseInt(last, 10, 64)
			if err != nil || n < 0 {
				return nil, errInvalidRange
			}
			dst = append(dst, span{size - min(n, size), size})
			continue
		}
		start, err := strconv.ParseInt(first, 10, 64)
		if err != nil || start < 0 {
			return nil, errInvalidRange
		}
		if start >= size {
			noOverlap = true
			continue
		}
		end := size
		if last != "" {
			i, err := strconv.ParseInt(last, 10, 64)
			if err != nil || start > i {
				return nil, errInvalidRange
			}
			// Clamp before adding one: i may be math.MaxInt64.
			end = min(i, size-1) + 1
		}
		dst = append(dst, span{start, end})
	}
	if noOverlap && len(dst) == 0 {
		return nil, errNoOverlap
	}
	return dst, nil
}

// objectType is the Content-Type of every stored object, whole or in parts.
const objectType = "application/octet-stream"

// preconditionHeaders are the RFC 7232 request headers whose evaluation
// stays with net/http.
var preconditionHeaders = [...]string{"If-Range", "If-Match", "If-None-Match", "If-Modified-Since", "If-Unmodified-Since"}

// serveBytes answers a GET or HEAD for an object with the stored bytes
// themselves: the Range header is resolved once, the headers are set from
// that, and the body is written from body directly — whole, one range, or
// multipart/byteranges framed like mime/multipart's — with no reader, pipe or
// copy buffer in between.
func serveBytes(w http.ResponseWriter, r *http.Request, inf storage.Info, body []byte) {
	h := w.Header()
	h.Set("Accept-Ranges", "bytes")
	h.Set("X-Checksum", inf.Checksum)
	h.Set("Content-Type", objectType)

	// Conditional requests — no client in this repository sends one — are
	// the one case still handed to net/http, which implements RFC 7232.
	// Which bytes it will serve is its decision, so no Digest is promised.
	for _, k := range preconditionHeaders {
		if len(r.Header[k]) > 0 {
			http.ServeContent(w, r, "", inf.ModTime, bytes.NewReader(body))
			return
		}
	}

	size := int64(len(body))
	var store [8]span
	ranges, err := parseRange(r.Header.Get("Range"), size, store[:0])
	if err == errNoOverlap && size == 0 {
		// A Range on an empty object is ignored rather than refused.
		err = nil
	}
	if err != nil {
		if err == errNoOverlap {
			h.Set("Content-Range", "bytes */"+strconv.FormatInt(size, 10))
		}
		http.Error(w, err.Error(), http.StatusRequestedRangeNotSatisfiable)
		return
	}
	// Like ServeContent, only an answer that serves bytes says how old
	// they are.
	if !inf.ModTime.IsZero() && !inf.ModTime.Equal(time.Unix(0, 0)) {
		h.Set("Last-Modified", string(webdav.AppendRFC1123(make([]byte, 0, 32), inf.ModTime, "GMT")))
	}
	var sum int64
	for _, ra := range ranges {
		sum += ra.end - ra.start
	}
	if sum > size {
		// More bytes asked for than the object holds: serve it whole.
		ranges = nil
	}
	if len(ranges) > 1 {
		serveMultipart(w, r, body, ranges)
		return
	}
	code, sp := http.StatusOK, span{0, size}
	if len(ranges) == 1 {
		code, sp = http.StatusPartialContent, ranges[0]
		h.Set("Content-Range", string(appendContentRange(make([]byte, 0, 64), sp, size)))
	}
	setDigestHeader(w, r, inf.Checksum, sp == span{0, size}, body[sp.start:sp.end])
	h.Set("Content-Length", strconv.FormatInt(sp.end-sp.start, 10))
	w.WriteHeader(code)
	if r.Method != http.MethodHead {
		w.Write(body[sp.start:sp.end])
	}
}

// appendContentRange appends "bytes start-last/size".
func appendContentRange(b []byte, ra span, size int64) []byte {
	b = append(b, "bytes "...)
	b = strconv.AppendInt(b, ra.start, 10)
	b = append(b, '-')
	b = strconv.AppendInt(b, ra.end-1, 10)
	b = append(b, '/')
	return strconv.AppendInt(b, size, 10)
}

// appendPartHeader appends what precedes one part's payload in a
// multipart/byteranges body: the boundary line and the two part headers
// mime/multipart writes for net/http, in its order.
func appendPartHeader(b []byte, first bool, boundary string, ra span, size int64) []byte {
	if !first {
		b = append(b, "\r\n"...)
	}
	b = append(b, "--"...)
	b = append(b, boundary...)
	b = append(b, "\r\nContent-Range: "...)
	b = appendContentRange(b, ra, size)
	return append(b, "\r\nContent-Type: "+objectType+"\r\n\r\n"...)
}

// serveMultipart writes a 206 multipart/byteranges answer: the part headers
// are rendered once to learn the Content-Length and once more to be sent,
// each followed by its slice of body.
func serveMultipart(w http.ResponseWriter, r *http.Request, body []byte, ranges []span) {
	h := w.Header()
	size := int64(len(body))
	// 30 random bytes in hex, the boundary mime/multipart picks.
	var rnd [30]byte
	for i := range rnd {
		rnd[i] = byte(rand.Uint32())
	}
	boundary := hex.EncodeToString(rnd[:])

	scratch := make([]byte, 0, 256)
	total := int64(len("\r\n--") + len(boundary) + len("--\r\n"))
	for i, ra := range ranges {
		total += int64(len(appendPartHeader(scratch, i == 0, boundary, ra, size))) + ra.end - ra.start
	}
	h.Set("Content-Type", "multipart/byteranges; boundary="+boundary)
	h.Set("Content-Length", strconv.FormatInt(total, 10))
	w.WriteHeader(http.StatusPartialContent)
	if r.Method == http.MethodHead {
		return
	}
	for i, ra := range ranges {
		if _, err := w.Write(appendPartHeader(scratch, i == 0, boundary, ra, size)); err != nil {
			return // client gone
		}
		if _, err := w.Write(body[ra.start:ra.end]); err != nil {
			return
		}
	}
	scratch = append(scratch, "\r\n--"...)
	scratch = append(scratch, boundary...)
	w.Write(append(scratch, "--\r\n"...))
}

// setDigestHeader answers a Want-Digest request (RFC 3230 style, hex
// values per the WLCG convention) with the digest of payload, the stored
// bytes of the one contiguous span this response carries, under the
// algorithm the request negotiates. A whole object is answered from its
// stored checksum when that is in the negotiated algorithm, without reading
// a byte. Multi-range answers get no Digest — the framing is not a single
// contiguous payload there.
func setDigestHeader(w http.ResponseWriter, r *http.Request, stored string, whole bool, payload []byte) {
	algo := digest.Negotiate(r.Header.Get("Want-Digest"), digest.Supported)
	if algo == "" {
		return
	}
	if v, ok := strings.CutPrefix(stored, string(algo)+":"); ok && whole {
		w.Header().Set("Digest", string(algo)+"="+v)
		return
	}
	h, _ := digest.New(algo)
	h.Write(payload)
	w.Header().Set("Digest", string(algo)+"="+hex.EncodeToString(h.Sum(nil)))
}

// putAlgo is the algorithm an upload is summed, stored and echoed under:
// the one its Want-Digest negotiates among the combinable algorithms, else
// digest.Default.
func putAlgo(r *http.Request) digest.Algo {
	if algo := digest.Negotiate(r.Header.Get("Want-Digest"), digest.Combinable); algo != "" {
		return algo
	}
	return digest.Default
}

func (s *Server) servePut(w http.ResponseWriter, r *http.Request, p string) {
	if cr := r.Header.Get("Content-Range"); cr != "" {
		if s.opts.DisableRangedPut {
			// RFC 9110 §14.4: an origin that cannot honour Content-Range
			// on PUT must reject the request rather than store a chunk as
			// the whole object.
			http.Error(w, "Content-Range on PUT not supported", http.StatusBadRequest)
			return
		}
		s.serveRangedPut(w, r, p, cr)
		return
	}
	if r.ContentLength > maxPartialTotal {
		http.Error(w, "body too large", http.StatusRequestEntityTooLarge)
		return
	}
	algo := putAlgo(r)
	data, sum, err := readBody(r, algo)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errBodyTooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), code)
		return
	}
	// A whole-body PUT replaces the object: any half-assembled ranged
	// upload for the path (every upload id) is abandoned.
	s.partialMu.Lock()
	for k := range s.partials {
		if k.path == p {
			delete(s.partials, k)
		}
	}
	s.partialMu.Unlock()
	if err := s.commit(p, data, algo, sum); err != nil {
		writeStoreErr(w, err)
		return
	}
	// Echo what was actually stored: a verifying client compares this
	// against the digest it accumulated while streaming the body, closing
	// the upload's end-to-end integrity loop at zero extra reads.
	setSumDigest(w, algo, sum)
	w.WriteHeader(http.StatusCreated)
}

// summedPutter is the optional commit path a Store may offer (MemStore
// does): the server hands over the upload buffer, which the store keeps
// instead of copying, together with the digest it computed while the body
// streamed in, which the store records instead of hashing the bytes again.
type summedPutter interface {
	PutSummed(p string, data []byte, algo digest.Algo, sum uint32) error
}

// commit stores an upload. data is the server's own buffer, never touched
// again, and sum its digest under algo.
func (s *Server) commit(p string, data []byte, algo digest.Algo, sum uint32) error {
	if sp, ok := s.store.(summedPutter); ok {
		return sp.PutSummed(p, data, algo, sum)
	}
	return s.store.Put(p, data)
}

// setSumDigest attaches to a PUT response the Digest of the bytes it
// received: the committed object on a 201, the chunk on a ranged 202.
func setSumDigest(w http.ResponseWriter, algo digest.Algo, sum uint32) {
	w.Header().Set("Digest", string(algo)+"="+fmt.Sprintf("%08x", sum))
}

// errBodyTooLarge marks a request body over the maxPartialTotal cap.
var errBodyTooLarge = errors.New("httpserv: body too large")

// sumPiece is how much of an upload body is read between two updates of its
// running digest: small enough that the bytes are still in cache when they
// are hashed, large enough that the per-update cost vanishes.
const sumPiece = 128 << 10

// readSummed fills dst from r and returns the digest of dst under algo,
// hashing each piece straight after reading it.
func readSummed(r io.Reader, dst []byte, algo digest.Algo) (uint32, error) {
	h := digest.New32(algo)
	for len(dst) > 0 {
		piece := dst[:min(sumPiece, len(dst))]
		if _, err := io.ReadFull(r, piece); err != nil {
			return 0, err
		}
		h.Write(piece)
		dst = dst[len(piece):]
	}
	return h.Sum32(), nil
}

// readBody drains a request body and returns it with its digest under
// algo, computed while the bytes streamed in. Content-Length-framed bodies
// land in one exactly-sized allocation, which the store then keeps —
// uploads are this server's hottest write path. A body shorter than its declared length
// (connection cut mid-upload) is an error: truncated uploads must never
// commit. Chunked bodies are bounded by the same maxPartialTotal cap the
// length-framed paths enforce.
func readBody(r *http.Request, algo digest.Algo) ([]byte, uint32, error) {
	if r.ContentLength < 0 {
		h := digest.New32(algo)
		b, err := io.ReadAll(io.TeeReader(io.LimitReader(r.Body, maxPartialTotal+1), h))
		if err == nil && int64(len(b)) > maxPartialTotal {
			return nil, 0, errBodyTooLarge
		}
		return b, h.Sum32(), err
	}
	buf := make([]byte, r.ContentLength)
	sum, err := readSummed(r.Body, buf, algo)
	return buf, sum, err
}

// parseContentRange parses a "bytes start-end/total" upload range. The
// total must be concrete (no "*"): commit is decided by coverage of it.
func parseContentRange(cr string) (start, end, total int64, ok bool) {
	rest, found := strings.CutPrefix(cr, "bytes ")
	if !found {
		return 0, 0, 0, false
	}
	span, totalStr, found := strings.Cut(rest, "/")
	if !found {
		return 0, 0, 0, false
	}
	startStr, endStr, found := strings.Cut(span, "-")
	if !found {
		return 0, 0, 0, false
	}
	var err error
	if start, err = strconv.ParseInt(startStr, 10, 64); err != nil {
		return 0, 0, 0, false
	}
	if end, err = strconv.ParseInt(endStr, 10, 64); err != nil {
		return 0, 0, 0, false
	}
	if total, err = strconv.ParseInt(totalStr, 10, 64); err != nil {
		return 0, 0, 0, false
	}
	if start < 0 || end < start || total <= end {
		return 0, 0, 0, false
	}
	return start, end, total, true
}

// serveRangedPut assembles one Content-Range chunk into the path's partial
// upload, committing to the store when every byte of the declared total
// has arrived: 202 Accepted per partial chunk, with the Digest of that
// chunk as received, and 201 Created with the object's on commit. The davix
// client PUTs disjoint chunks concurrently over pooled connections;
// out-of-order and duplicate arrivals are both tolerated. Chunk bodies
// stream directly into the assembly buffer and are hashed as they land —
// concurrent chunks copy and hash in parallel, only the interval and sum
// bookkeeping is serialized — so the commit combines the chunk sums rather
// than reading the object again. The digest it stores and advertises is
// still always that of the bytes committed: whenever a byte may have been
// written twice the commit hashes the whole buffer instead.
func (s *Server) serveRangedPut(w http.ResponseWriter, r *http.Request, p, cr string) {
	start, end, total, ok := parseContentRange(cr)
	if !ok {
		http.Error(w, "malformed Content-Range: "+cr, http.StatusBadRequest)
		return
	}
	want := end - start + 1
	if r.ContentLength >= 0 && r.ContentLength != want {
		http.Error(w, fmt.Sprintf("body is %d bytes, Content-Range promises %d", r.ContentLength, want), http.StatusBadRequest)
		return
	}
	if total > maxPartialTotal {
		http.Error(w, "upload total too large", http.StatusRequestEntityTooLarge)
		return
	}
	key := partialKey{path: p, id: r.Header.Get("X-Upload-Id")}

	s.partialMu.Lock()
	pu := s.partials[key]
	if pu == nil {
		s.sweepPartialsLocked()
		if len(s.partials) >= maxPartials {
			s.partialMu.Unlock()
			http.Error(w, "too many uploads in progress", http.StatusServiceUnavailable)
			return
		}
		// Allocate the assembly buffer outside the lock; another chunk may
		// win the race, in which case ours is dropped.
		s.partialMu.Unlock()
		fresh := &partialUpload{data: make([]byte, total), idle: sync.NewCond(&s.partialMu)}
		fresh.sums, _ = digest.NewRollup(putAlgo(r))
		s.partialMu.Lock()
		if pu = s.partials[key]; pu == nil {
			// Re-check the cap: other first chunks may have inserted while
			// the lock was released for the allocation.
			if len(s.partials) >= maxPartials {
				s.partialMu.Unlock()
				http.Error(w, "too many uploads in progress", http.StatusServiceUnavailable)
				return
			}
			pu = fresh
			s.partials[key] = pu
			s.maybeStartJanitorLocked()
		}
	}
	if int64(len(pu.data)) != total {
		s.partialMu.Unlock()
		http.Error(w, "total differs from upload in progress", http.StatusConflict)
		return
	}
	pu.lastTouch = time.Now()
	// Registered under the lock while pu is current: the committer deletes
	// the map entry under this lock before Wait, so every Add
	// happens-before its Wait.
	pu.writers.Add(1)
	pu.active++
	// A duplicate of a chunk still streaming in (a retry racing the attempt
	// it gave up on) takes its turn after it: the later body then lands
	// whole, and the two never write the same bytes at once.
	mine := ivl{start, end + 1}
	for slices.ContainsFunc(pu.streaming, mine.overlaps) {
		pu.idle.Wait()
	}
	pu.streaming = append(pu.streaming, mine)
	s.partialMu.Unlock()

	// Stream the body straight into place. A failed read leaves the
	// interval unmarked and no sum behind, so a retry simply overwrites the
	// garbage.
	algo := pu.sums.Algo()
	sum, err := readSummed(r.Body, pu.data[start:end+1], algo)
	if err == nil && r.ContentLength < 0 { // chunked body: refuse trailing bytes
		var one [1]byte
		if n, _ := r.Body.Read(one[:]); n > 0 {
			err = errors.New("body longer than Content-Range promises")
		}
	}
	pu.writers.Done()

	s.partialMu.Lock()
	pu.active--
	pu.lastTouch = time.Now()
	pu.streaming = slices.DeleteFunc(pu.streaming, func(iv ivl) bool { return iv == mine })
	pu.idle.Broadcast()
	if err != nil {
		// The garbage may sit on bytes another chunk already accounted for.
		pu.dirty = true
		s.partialMu.Unlock()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The assembly may have been replaced (whole-body PUT) or committed
	// while we copied; only count coverage toward the buffer the bytes
	// actually landed in. A committer that saw this request still active
	// hashes the buffer itself once we are done.
	if s.partials[key] != pu {
		s.partialMu.Unlock()
		setSumDigest(w, algo, sum)
		w.WriteHeader(http.StatusAccepted)
		return
	}
	before := pu.covered
	pu.covered = pu.add(start, end+1)
	pu.sums.Add(start, want, sum)
	// Coverage grew by less than the chunk: part of it was written before.
	pu.dirty = pu.dirty || pu.covered != before+want
	if pu.covered != total {
		s.partialMu.Unlock()
		setSumDigest(w, algo, sum)
		w.WriteHeader(http.StatusAccepted)
		return
	}
	delete(s.partials, key)
	// A chunk still streaming now can only be rewriting covered bytes.
	pu.dirty = pu.dirty || pu.active > 0
	rehash := pu.dirty
	s.partialMu.Unlock()

	// Quiesce late duplicate chunks before the zero-copy handoff: the
	// store may retain the buffer (PutSummed), so no writer may touch it
	// after this point.
	pu.writers.Wait()
	sum, err = pu.sums.Sum(total)
	if rehash || err != nil { // err: the sums do not tile [0, total)
		sum = digest.Sum32(algo, pu.data)
	}
	if err := s.commit(p, pu.data, algo, sum); err != nil {
		writeStoreErr(w, err)
		return
	}
	setSumDigest(w, algo, sum)
	w.WriteHeader(http.StatusCreated)
}

// sweepPartialsLocked drops assemblies idle past the TTL, never one with a
// chunk body still streaming in. Caller holds partialMu.
func (s *Server) sweepPartialsLocked() {
	now := time.Now()
	cutoff := now.Add(-s.partialTTLValue())
	for k, pu := range s.partials {
		if pu.active == 0 && pu.lastTouch.Before(cutoff) {
			delete(s.partials, k)
			s.partialReaped.Add(1)
			s.opts.Trace.EmitPartialReaped(k.path, now.Sub(pu.lastTouch))
		}
	}
}

// maybeStartJanitorLocked launches the TTL janitor if it is not already
// running — called when an assembly is created, so a server that never sees
// a ranged upload never runs the goroutine. Caller holds partialMu.
func (s *Server) maybeStartJanitorLocked() {
	if s.janitorOn {
		return
	}
	select {
	case <-s.closeCh:
		return
	default:
	}
	s.janitorOn = true
	go s.janitor()
}

// janitor periodically reaps abandoned assemblies: an aborted multi-stream
// upload's buffer is reclaimed after the TTL even if no further ranged PUT
// ever arrives (the historical sweep only ran on new-assembly creation, so
// the last crashed upload leaked forever). Exits when the table empties —
// the next assembly restarts it — or when the Server is closed.
func (s *Server) janitor() {
	tick := s.partialTTLValue() / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-s.closeCh:
			s.partialMu.Lock()
			s.janitorOn = false
			s.partialMu.Unlock()
			return
		}
		s.partialMu.Lock()
		s.sweepPartialsLocked()
		if len(s.partials) == 0 {
			s.janitorOn = false
			s.partialMu.Unlock()
			return
		}
		s.partialMu.Unlock()
	}
}

func (s *Server) serveDelete(w http.ResponseWriter, p string) {
	if err := s.store.Delete(p); err != nil {
		writeStoreErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) serveMkcol(w http.ResponseWriter, p string) {
	if err := s.store.Mkdir(p); err != nil {
		writeStoreErr(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

// servePropfind streams the 207 multistatus body: the listing is fetched
// before headers go out (so store errors still map to proper statuses), but
// the XML is generated incrementally rather than materialized and reaches w
// in 32 KiB batches — the response size no longer scales server memory with
// the collection size, mirroring the client's streaming multistatus decoder.
func (s *Server) servePropfind(w http.ResponseWriter, r *http.Request, p string) {
	inf, err := s.store.Stat(p)
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	var children []storage.Info
	if inf.Dir && r.Header.Get("Depth") != "0" {
		if children, err = s.store.List(p); err != nil {
			writeStoreErr(w, err)
			return
		}
	}
	w.Header().Set("Content-Type", webdav.ContentType)
	w.WriteHeader(http.StatusMultiStatus)
	mw := webdav.NewMultistatusWriter(w)
	defer mw.Close() // returns the writer's pooled buffer on every path
	mw.WriteEntry(webdav.Entry{Href: inf.Path, Size: inf.Size, Dir: inf.Dir, ModTime: inf.ModTime})
	for _, c := range children {
		if mw.WriteEntry(webdav.Entry{Href: c.Path, Size: c.Size, Dir: c.Dir, ModTime: c.ModTime}) != nil {
			return // client gone; nothing useful left to send
		}
	}
}

// localDest resolves a Destination header against this server: a path-only
// Destination, or an absolute URL whose host (modulo default port) is this
// server's own, names a local namespace path.
func localDest(r *http.Request, dest string) (string, bool) {
	if strings.HasPrefix(dest, "/") {
		return storage.Clean(dest), true
	}
	dHost, dPath, err := metalink.SplitURL(dest)
	if err != nil {
		return "", false
	}
	if hostEq(dHost, r.Host) {
		return storage.Clean(dPath), true
	}
	return "", false
}

// hostEq compares two host[:port] strings, treating a missing port as :80.
func hostEq(a, b string) bool {
	norm := func(h string) string {
		if _, _, err := net.SplitHostPort(h); err != nil {
			return h + ":80"
		}
		return h
	}
	return norm(a) == norm(b)
}

// serveCopy implements WebDAV COPY. A Destination on this server is a local
// namespace copy through the store's two-key path; a foreign Destination is
// third-party push copy — the object is uploaded to the Destination URL by
// the server itself, so the data never flows through the requesting client
// (the WLCG HTTP-TPC pattern).
func (s *Server) serveCopy(w http.ResponseWriter, r *http.Request, p string) {
	dest := r.Header.Get("Destination")
	if dest == "" {
		http.Error(w, "missing Destination header", http.StatusBadRequest)
		return
	}
	if dPath, ok := localDest(r, dest); ok {
		if err := s.store.Copy(p, dPath); err != nil {
			writeStoreErr(w, err)
			return
		}
		w.WriteHeader(http.StatusCreated)
		return
	}
	if s.opts.Copier == nil {
		http.Error(w, "third-party copy not enabled", http.StatusNotImplemented)
		return
	}
	dHost, dPath, err := metalink.SplitURL(dest)
	if err != nil {
		http.Error(w, "bad Destination: "+err.Error(), http.StatusBadRequest)
		return
	}
	data, _, err := s.store.Get(p)
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	if err := s.opts.Copier.Put(r.Context(), dHost, dPath, data); err != nil {
		http.Error(w, "push failed: "+err.Error(), http.StatusBadGateway)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

// serveMove implements WebDAV MOVE for Destinations on this server; a
// cross-server MOVE (push + delete) is not offered.
func (s *Server) serveMove(w http.ResponseWriter, r *http.Request, p string) {
	dest := r.Header.Get("Destination")
	if dest == "" {
		http.Error(w, "missing Destination header", http.StatusBadRequest)
		return
	}
	dPath, ok := localDest(r, dest)
	if !ok {
		http.Error(w, "cross-server MOVE not supported", http.StatusNotImplemented)
		return
	}
	if err := s.store.Move(p, dPath); err != nil {
		writeStoreErr(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

func writeStoreErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, storage.ErrNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, storage.ErrExists):
		http.Error(w, err.Error(), http.StatusMethodNotAllowed)
	case errors.Is(err, storage.ErrIsDir), errors.Is(err, storage.ErrNotDir):
		http.Error(w, err.Error(), http.StatusConflict)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
