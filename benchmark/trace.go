package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	davix "godavix"
	"godavix/internal/rootio"
)

// span is one recorded interval at a layer boundary, seen from outside the
// product: the benchmark brackets its own calls into a layer, the Dialer
// wrapper brackets connection activity. Times are nanoseconds since the
// traced round began.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Iter     int    `json:"iter"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// recorder keeps the spans, boundary counts and captured bytes of one
// workload's traced round in memory. A nil *recorder means tracing is off;
// the workloads test for nil before every use so the plain rounds pay
// nothing.
type recorder struct {
	workload string
	t0       time.Time
	nextID   atomic.Int64

	mu    sync.Mutex
	spans []span
	iter  int
	root  int64 // span id of the iteration in progress

	// capture is on during the first traced iteration only: the layer
	// replays need one iteration's worth of real bytes, not the round's.
	capture atomic.Bool
	conns   []*connRec      // connections opened or active while capturing
	vectors [][]davix.Range // vectors seen by the Source wrapper while capturing

	// Source-boundary counts over the whole traced round.
	srcCalls, srcRanges, srcBytes atomic.Int64
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

func (r *recorder) newID() int64 { return r.nextID.Add(1) }

// add stores a finished span under an id taken earlier with newID, so
// children can name their parent before the parent has ended.
func (r *recorder) add(id, parent int64, layer, name string, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Layer: layer, Name: name,
		StartNs: int64(start.Sub(r.t0)), EndNs: int64(end.Sub(r.t0)),
		Workload: r.workload, Iter: r.iter,
	})
	r.mu.Unlock()
}

// call records one call the benchmark made into a layer, as a child of the
// iteration in progress, ending now.
func (r *recorder) call(layer, name string, start time.Time) {
	r.add(r.newID(), r.currentRoot(), layer, name, start, time.Now())
}

func (r *recorder) currentRoot() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.root
}

// beginIter opens the root span of iteration iter and returns the function
// that closes it.
func (r *recorder) beginIter(iter int) (end func()) {
	id := r.newID()
	r.mu.Lock()
	r.iter, r.root = iter, id
	r.mu.Unlock()
	r.capture.Store(iter == 0)
	start := time.Now()
	return func() {
		r.capture.Store(false)
		r.add(id, 0, "bench", "iteration", start, time.Now())
	}
}

// select returns the recorded spans with the given layer and name.
func (r *recorder) selectSpans(layer, name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// writeTo writes every span as one JSON array to dir/trace-<workload>.json.
func (r *recorder) writeTo(dir string) error {
	r.mu.Lock()
	data, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+r.workload+".json"), data, 0o644)
}

// wrapSource brackets the rootio.Source closures: every vectored read the
// reader issues becomes a core-layer span (synchronous reads for their
// duration, asynchronous ones from issue to completion), and the vectors
// themselves are kept while capturing so rangev can be replayed on them.
func (r *recorder) wrapSource(src rootio.Source) rootio.Source {
	note := func(ranges []davix.Range) {
		r.srcCalls.Add(1)
		r.srcRanges.Add(int64(len(ranges)))
		var n int64
		for _, rg := range ranges {
			n += rg.Len
		}
		r.srcBytes.Add(n)
		if r.capture.Load() {
			cp := append([]davix.Range(nil), ranges...)
			r.mu.Lock()
			r.vectors = append(r.vectors, cp)
			r.mu.Unlock()
		}
	}
	out := src
	out.ReadVec = func(ranges []davix.Range, dsts [][]byte) error {
		note(ranges)
		start := time.Now()
		err := src.ReadVec(ranges, dsts)
		r.call("core", "readvec", start)
		return err
	}
	if src.ReadVecAsyncCtx != nil {
		out.ReadVecAsyncCtx = func(ctx context.Context, ranges []davix.Range, dsts [][]byte) <-chan error {
			note(ranges)
			start := time.Now()
			inner := src.ReadVecAsyncCtx(ctx, ranges, dsts)
			done := make(chan error, 1)
			go func() {
				err := <-inner
				r.call("core", "readvec_async", start)
				done <- err
			}()
			return done
		}
	}
	return out
}
