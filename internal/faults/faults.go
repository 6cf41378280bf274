// Package faults injects server misbehaviour from outside a gateway. A
// Layer wraps any http.Handler and, for the paths a test arms, delays,
// refuses, kills, cuts or corrupts requests before or while the handler
// behind it serves them. It is the adversary of the client's failover,
// retry, hedge, resume and integrity paths; no server ships it.
//
// The Layer sits in front of everything the handler does, so a fault fires
// before the gateway's admission control and authorization: a delayed
// request holds no gateway slot, and a request the Layer answers or kills
// itself never reaches the gateway's counters. Requests counts every
// request that arrives, faulted or not.
package faults

import (
	"errors"
	"net/http"
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
	next     http.Handler
	mu       sync.Mutex
	faults   map[string]*Fault
	byMethod map[string]int64
}

// New wraps next in a Layer with no fault armed.
func New(next http.Handler) *Layer {
	return &Layer{next: next, faults: map[string]*Fault{}, byMethod: map[string]int64{}}
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
	return l.byMethod[method]
}

// arrive counts r and returns a copy of the fault that fires on it,
// consuming one use. The exact path's fault shadows the wildcard, even
// while it is still letting requests through.
func (l *Layer) arrive(r *http.Request) *Fault {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.byMethod[r.Method]++
	for _, key := range []string{storage.Clean(r.URL.Path), "*"} {
		if f := l.faults[key]; f != nil && f.After > 0 {
			f.After--
			return nil
		} else if f != nil {
			// Counting down from zero or below never reaches zero again.
			if f.Remaining--; f.Remaining == 0 {
				delete(l.faults, key)
			}
			cp := *f
			return &cp
		}
	}
	return nil
}

// ServeHTTP implements http.Handler.
func (l *Layer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f := l.arrive(r)
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
	left int64
}

func (d *dropper) Write(p []byte) (int, error) {
	n := min(int64(len(p)), d.left)
	d.left -= n
	if _, err := d.ResponseWriter.Write(p[:n]); err != nil || n < int64(len(p)) {
		return int(n), errDropped
	}
	return len(p), nil
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

func (c *corrupter) Unwrap() http.ResponseWriter { return c.ResponseWriter }
