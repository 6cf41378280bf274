// Package faults injects server misbehaviour from outside a gateway. A
// Layer wraps any http.Handler and, for the paths a test arms, delays,
// refuses, kills, cuts or corrupts requests before or while the handler
// behind it serves them. It is the adversary of the client's failover,
// retry, hedge, resume and integrity paths; no server ships it.
//
// The Layer sits in front of everything the handler does, so a fault fires
// before the gateway's admission control and authorization: a delayed
// request holds no gateway slot, and a request the Layer answers or kills
// itself never reaches the gateway's counters. The Layer records every
// request that arrives, faulted or not (Exchanges), and Requests counts
// that recording.
package faults

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"godavix/internal/storage"
)

// Fault describes injected misbehaviour for a path ("*" matches all).
type Fault struct {
	// Status, when non-zero, is returned instead of serving the request.
	Status int
	// Delay is waited out before handling (creates head-of-line
	// blocking); a request cancelled during the wait is aborted.
	Delay time.Duration
	// Abort, when true, kills the connection without writing a response
	// (models a server crash mid-request).
	Abort bool
	// DropAfter, when positive, kills a GET's connection once N bytes of
	// the handler's own response body have gone out: a mid-transfer
	// connection drop, not a status code. Other methods pass unharmed.
	DropAfter int64
	// CorruptXOR, when non-zero, XORs the GET response byte at object
	// offset CorruptAt with it, after the handler has written headers
	// (X-Checksum, Digest) describing the pristine content: silent storage
	// or wire corruption only end-to-end verification can catch. A
	// multi-range GET is refused with 500.
	CorruptXOR byte
	// CorruptAt is the absolute object offset of the flipped byte.
	CorruptAt int64
	// Remaining, when positive, auto-expires the fault after that many
	// requests; zero or negative means unlimited.
	Remaining int
	// After, when positive, lets that many matching requests through
	// unharmed before the fault starts firing — e.g. pass a multi-stream
	// upload's probe chunk and fail a sibling.
	After int
}

// Layer is an http.Handler that injects the armed faults in front of next.
type Layer struct {
	next   http.Handler
	mu     sync.Mutex
	faults map[string]*Fault
	log    []Exchange
}

// New wraps next in a Layer with no fault armed.
func New(next http.Handler) *Layer {
	return &Layer{next: next, faults: map[string]*Fault{}}
}

// Exchange is one request as it reached the Layer, before any fault fired,
// and how it ended.
type Exchange struct {
	Host, Method, Target string
	// Header holds the request's header fields as sorted "Name: value"
	// lines, the masked names' values replaced by "*".
	Header []string
	// BodyLen and BodySum are the length and FNV-1a hash of the request
	// body as far as the handler read it.
	BodyLen int64
	BodySum uint64
	// Status is the response's status code: 0 when none was written.
	Status int
	// Done is set once the handler has returned.
	Done bool
}

// masked names the request headers whose values differ from run to run
// (a fresh upload id per transfer).
var masked = []string{"X-Upload-Id"}

// String renders x on one line: method, host, target, header fields,
// the body's length and hash, and the status, "pending" while the request
// is being served and 0 if it was killed without a response.
func (x Exchange) String() string {
	status := "pending"
	if x.Done {
		status = strconv.Itoa(x.Status)
	}
	return fmt.Sprintf("%s %s %s | %s | body %d %016x | %s",
		x.Method, x.Host, x.Target, strings.Join(x.Header, " | "), x.BodyLen, x.BodySum, status)
}

// Set arms (or replaces) the fault for path p ("*" = every path).
func (l *Layer) Set(p string, f Fault) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.faults[p] = &f
}

// Clear disarms the fault for p.
func (l *Layer) Clear(p string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.faults, p)
}

// Requests reports how many requests with the given method have arrived.
func (l *Layer) Requests(method string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := int64(0)
	for _, x := range l.log {
		if x.Method == method {
			n++
		}
	}
	return n
}

// Exchanges returns every request that has arrived, in arrival order.
func (l *Layer) Exchanges() []Exchange {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.log)
}

// arrive records r and returns its index in the log and a copy of the
// fault that fires on it, consuming one use. The exact path's fault
// shadows the wildcard, even while it is still letting requests through.
func (l *Layer) arrive(r *http.Request) (int, *Fault) {
	x := Exchange{Host: r.Host, Method: r.Method, Target: r.RequestURI}
	for name, vals := range r.Header {
		for _, v := range vals {
			if slices.Contains(masked, name) {
				v = "*"
			}
			x.Header = append(x.Header, name+": "+v)
		}
	}
	slices.Sort(x.Header)
	l.mu.Lock()
	defer l.mu.Unlock()
	i := len(l.log)
	l.log = append(l.log, x)
	for _, key := range []string{storage.Clean(r.URL.Path), "*"} {
		if f := l.faults[key]; f != nil && f.After > 0 {
			f.After--
			return i, nil
		} else if f != nil {
			// Counting down from zero or below never reaches zero again.
			if f.Remaining--; f.Remaining == 0 {
				delete(l.faults, key)
			}
			cp := *f
			return i, &cp
		}
	}
	return i, nil
}

// settle completes the log entry at i once its handler has returned.
func (l *Layer) settle(i int, st *statusWriter, body *bodyHash) {
	l.mu.Lock()
	defer l.mu.Unlock()
	x := &l.log[i]
	x.Status, x.BodyLen, x.BodySum, x.Done = st.status, body.n, body.h.Sum64(), true
}

// ServeHTTP implements http.Handler.
func (l *Layer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	i, f := l.arrive(r)
	st := &statusWriter{ResponseWriter: w}
	body := &bodyHash{ReadCloser: r.Body, h: fnv.New64a()}
	defer l.settle(i, st, body) // also when a fault or a cut kills the request
	// A shallow copy carries the hashed body: the server reads its own
	// Request's Body to decide how to answer Expect: 100-continue.
	r = r.WithContext(r.Context())
	w, r.Body = st, body
	if f != nil && f.Delay > 0 {
		select {
		case <-time.After(f.Delay):
		case <-r.Context().Done():
			panic(http.ErrAbortHandler)
		}
	}
	switch {
	case f == nil:
	case f.Abort:
		panic(http.ErrAbortHandler)
	case f.Status != 0:
		http.Error(w, "injected fault "+strconv.Itoa(f.Status), f.Status)
		return
	case r.Method != http.MethodGet:
	case f.CorruptXOR != 0 && strings.Contains(r.Header.Get("Range"), ","):
		http.Error(w, "faults: cannot corrupt a multi-range GET", http.StatusInternalServerError)
		return
	default:
		if f.CorruptXOR != 0 {
			w = &corrupter{ResponseWriter: w, xor: f.CorruptXOR, at: f.CorruptAt}
		}
		if f.DropAfter > 0 {
			d := &dropper{ResponseWriter: w, left: f.DropAfter}
			defer d.cut() // a body no longer than DropAfter is cut at its end
			w = d
		}
	}
	l.next.ServeHTTP(w, r)
}

// dropper passes the first left body bytes through and discards the rest;
// cut then kills the connection.
type dropper struct {
	http.ResponseWriter
	left    int64
	dropped bool // a write was cut short
}

func (d *dropper) Write(p []byte) (int, error) {
	n := min(int64(len(p)), d.left)
	d.left -= n
	if n < int64(len(p)) {
		d.dropped = true
	}
	if _, err := d.ResponseWriter.Write(p[:n]); err != nil || n < int64(len(p)) {
		return int(n), errDropped
	}
	return len(p), nil
}

// Flush forwards until the body has been cut: what was written before the
// cut reaches the client when cut flushes it.
func (d *dropper) Flush() {
	if !d.dropped {
		flush(d.ResponseWriter)
	}
}

var errDropped = errors.New("faults: connection dropped")

// cut flushes what was written and kills the connection.
func (d *dropper) cut() {
	http.NewResponseController(d.ResponseWriter).Flush()
	panic(http.ErrAbortHandler)
}

func (d *dropper) Unwrap() http.ResponseWriter { return d.ResponseWriter }

// corrupter flips the body byte at object offset at. off is the object
// offset of the next body byte: the start of a 206's Content-Range, else 0.
type corrupter struct {
	http.ResponseWriter
	xor     byte
	at, off int64
}

func (c *corrupter) WriteHeader(code int) {
	if code == http.StatusPartialContent {
		first, _, _ := strings.Cut(strings.TrimPrefix(c.Header().Get("Content-Range"), "bytes "), "-")
		c.off, _ = strconv.ParseInt(first, 10, 64)
	}
	c.ResponseWriter.WriteHeader(code)
}

func (c *corrupter) Write(p []byte) (int, error) {
	if i := c.at - c.off; i >= 0 && i < int64(len(p)) {
		p = append([]byte(nil), p...) // p may alias the stored object
		p[i] ^= c.xor
	}
	c.off += int64(len(p))
	return c.ResponseWriter.Write(p)
}

func (c *corrupter) Flush() { flush(c.ResponseWriter) }

func (c *corrupter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// statusWriter notes the status code of the response written through it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) {
	if s.status == 0 && code >= 200 {
		s.status = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusWriter) Write(p []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	return s.ResponseWriter.Write(p)
}

func (s *statusWriter) Flush() { flush(s.ResponseWriter) }

// flush forwards a Flush to w when it supports flushing: none of the
// layer's writers hides the http.Flusher capability handlers probe for.
func flush(w http.ResponseWriter) {
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *statusWriter) Unwrap() http.ResponseWriter { return s.ResponseWriter }

// bodyHash hashes the request body as the handler reads it.
type bodyHash struct {
	io.ReadCloser
	h hash.Hash64
	n int64
}

func (b *bodyHash) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.h.Write(p[:n])
	b.n += int64(n)
	return n, err
}
