package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"godavix/internal/faults"
	"godavix/internal/httpserv"
	"godavix/internal/storage"
)

func buildTree(t *testing.T, e *testEnv) {
	t.Helper()
	st := e.stores[dpm1]
	st.Put("/data/run1/a.rnt", []byte("aa"))
	st.Put("/data/run1/b.rnt", []byte("bbb"))
	st.Put("/data/run2/c.rnt", []byte("c"))
	st.Put("/data/readme", []byte("r"))
}

func TestWalkVisitsEverything(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone})
	e.startServer(t, dpm1, httpserv.Options{})
	buildTree(t, e)

	var paths []string
	err := e.client.Walk(context.Background(), dpm1, "/data", func(inf Info) error {
		paths = append(paths, inf.Path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"/data",
		"/data/readme",
		"/data/run1",
		"/data/run1/a.rnt",
		"/data/run1/b.rnt",
		"/data/run2",
		"/data/run2/c.rnt",
	}
	if len(paths) != len(want) {
		t.Fatalf("paths = %v", paths)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("paths[%d] = %q, want %q (all: %v)", i, paths[i], want[i], paths)
		}
	}
}

func TestWalkSkipDir(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone})
	e.startServer(t, dpm1, httpserv.Options{})
	buildTree(t, e)

	var paths []string
	err := e.client.Walk(context.Background(), dpm1, "/data", func(inf Info) error {
		if inf.Path == "/data/run1" {
			return SkipDir
		}
		paths = append(paths, inf.Path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if p == "/data/run1/a.rnt" || p == "/data/run1/b.rnt" {
			t.Fatalf("descended into skipped dir: %v", paths)
		}
	}
}

func TestWalkAbortsOnError(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone})
	e.startServer(t, dpm1, httpserv.Options{})
	buildTree(t, e)

	boom := errors.New("boom")
	count := 0
	err := e.client.Walk(context.Background(), dpm1, "/data", func(inf Info) error {
		count++
		if count == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if count != 2 {
		t.Fatalf("visited %d entries after abort", count)
	}
}

func TestWalkSingleFile(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone})
	e.startServer(t, dpm1, httpserv.Options{})
	e.stores[dpm1].Put("/lonely", []byte("x"))

	var paths []string
	err := e.client.Walk(context.Background(), dpm1, "/lonely", func(inf Info) error {
		paths = append(paths, inf.Path)
		return nil
	})
	if err != nil || len(paths) != 1 || paths[0] != "/lonely" {
		t.Fatalf("paths = %v err = %v", paths, err)
	}
}

func TestWalkMissingRoot(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone})
	e.startServer(t, dpm1, httpserv.Options{})
	err := e.client.Walk(context.Background(), dpm1, "/ghost", func(Info) error { return nil })
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

// mkdirAll creates p and any missing ancestors on the test store.
func mkdirAll(t *testing.T, e *testEnv, p string) {
	t.Helper()
	for i := 1; i <= len(p); i++ {
		if i == len(p) || p[i] == '/' {
			if err := e.stores[dpm1].Mkdir(p[:i]); err != nil && !errors.Is(err, storage.ErrExists) {
				t.Fatal(err)
			}
		}
	}
}

// buildRandomTree populates a pseudo-random nested namespace and returns
// the number of entries created.
func buildRandomTree(t *testing.T, e *testEnv, seed int64) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	st := e.stores[dpm1]
	mkdirAll(t, e, "/tree")
	n := 0
	var grow func(prefix string, depth int)
	grow = func(prefix string, depth int) {
		files := rng.Intn(4)
		for i := 0; i < files; i++ {
			st.Put(fmt.Sprintf("%s/f%d.rnt", prefix, i), make([]byte, rng.Intn(64)))
			n++
		}
		if depth == 0 {
			return
		}
		dirs := 1 + rng.Intn(3)
		for i := 0; i < dirs; i++ {
			sub := fmt.Sprintf("%s/d%d", prefix, i)
			if err := st.Mkdir(sub); err != nil {
				t.Fatal(err)
			}
			n++
			grow(sub, depth-1)
		}
	}
	grow("/tree", 4)
	return n
}

// collectWalk runs one Walk with the given parallelism and returns the
// emitted paths in order.
func collectWalk(t *testing.T, e *testEnv, par int, root string) []string {
	t.Helper()
	client, err := NewClient(Options{
		Dialer:          e.net,
		Strategy:        StrategyNone,
		WalkParallelism: par,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var paths []string
	err = client.Walk(context.Background(), dpm1, root, func(inf Info) error {
		paths = append(paths, inf.Path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestWalkParallelOrderMatchesSerial is the determinism bar: at every
// parallelism level, the emission sequence must be byte-identical to the
// serial walk over a pseudo-random nested tree.
func TestWalkParallelOrderMatchesSerial(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone})
	e.startServer(t, dpm1, httpserv.Options{})
	n := buildRandomTree(t, e, 42)

	serial := collectWalk(t, e, 1, "/tree")
	if len(serial) != n+1 { // +1 for the root
		t.Fatalf("serial walk emitted %d entries, tree has %d", len(serial), n+1)
	}
	for _, par := range []int{2, 4, 16} {
		got := collectWalk(t, e, par, "/tree")
		if len(got) != len(serial) {
			t.Fatalf("par=%d emitted %d entries, serial %d", par, len(got), len(serial))
		}
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("par=%d entry %d = %q, serial has %q", par, i, got[i], serial[i])
			}
		}
	}
}

// TestWalkParallelSkipDir prunes subtrees mid-parallel-walk and asserts no
// pruned entry is emitted and order is preserved for the rest.
func TestWalkParallelSkipDir(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone, WalkParallelism: 8})
	e.startServer(t, dpm1, httpserv.Options{})
	buildRandomTree(t, e, 7)

	var kept []string
	err := e.client.Walk(context.Background(), dpm1, "/tree", func(inf Info) error {
		if inf.Dir && inf.Path != "/tree" && inf.Path[len(inf.Path)-2:] == "d0" {
			return SkipDir
		}
		kept = append(kept, inf.Path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range kept {
		for i := 0; i+2 < len(p); i++ {
			if p[i:i+3] == "d0/" {
				t.Fatalf("entry under pruned subtree emitted: %q", p)
			}
		}
	}
}

// TestWalkParallelAbortsOnError: an fn error must stop the walk at exactly
// the serial position; nothing after it is emitted.
func TestWalkParallelAbortsOnError(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone, WalkParallelism: 8})
	e.startServer(t, dpm1, httpserv.Options{})
	buildRandomTree(t, e, 11)

	serial := collectWalk(t, e, 1, "/tree")
	boom := errors.New("boom")
	stopAt := len(serial) / 2
	var seen []string
	err := e.client.Walk(context.Background(), dpm1, "/tree", func(inf Info) error {
		if len(seen) == stopAt {
			return boom
		}
		seen = append(seen, inf.Path)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if len(seen) != stopAt {
		t.Fatalf("emitted %d entries after abort at %d", len(seen), stopAt)
	}
	for i := range seen {
		if seen[i] != serial[i] {
			t.Fatalf("entry %d = %q before abort, serial has %q", i, seen[i], serial[i])
		}
	}
}

// TestWalkMidWalkCancellation cancels the context from inside fn; the walk
// must return the context error and the fleet must wind down without
// panics or leaked emissions.
func TestWalkMidWalkCancellation(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone, WalkParallelism: 8})
	e.startServer(t, dpm1, httpserv.Options{})
	buildRandomTree(t, e, 23)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	count := 0
	err := e.client.Walk(ctx, dpm1, "/tree", func(inf Info) error {
		count++
		if count == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if count < 5 {
		t.Fatalf("cancelled too early: %d emissions", count)
	}
}

// TestWalkSpeculationBounded: the engine must not expand the whole
// namespace ahead of a slow consumer — goroutines (a proxy for retained
// listings) stay bounded by the speculation window, not the tree size.
func TestWalkSpeculationBounded(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone, WalkParallelism: 2})
	e.startServer(t, dpm1, httpserv.Options{})
	st := e.stores[dpm1]
	mkdirAll(t, e, "/wide")
	const dirs = 300
	for i := 0; i < dirs; i++ {
		if err := st.Mkdir(fmt.Sprintf("/wide/d%03d", i)); err != nil {
			t.Fatal(err)
		}
		st.Put(fmt.Sprintf("/wide/d%03d/f", i), []byte("x"))
	}

	base := runtime.NumGoroutine()
	peak := 0
	count := 0
	err := e.client.Walk(context.Background(), dpm1, "/wide", func(inf Info) error {
		count++
		if count%20 == 0 {
			// Give speculation time to run as far ahead as it ever will.
			time.Sleep(2 * time.Millisecond)
			if g := runtime.NumGoroutine(); g > peak {
				peak = g
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 1+2*dirs {
		t.Fatalf("emitted %d entries", count)
	}
	// Unbounded speculation would park one goroutine per directory (~300+
	// above base). The ticket window for parallelism 2 allows 8 speculated
	// nodes plus per-connection server goroutines; 100 is a generous bound
	// that still fails an O(tree) regression.
	if peak > base+100 {
		t.Fatalf("goroutines peaked at %d (base %d): speculation not bounded", peak, base)
	}
}

// TestWalkSkipDirCancelsInFlight: pruning a huge subtree must cancel its
// speculative listings — the server must see far fewer PROPFINDs than the
// subtree holds.
func TestWalkSkipDirCancelsInFlight(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone, WalkParallelism: 2})
	e.startServer(t, dpm1, httpserv.Options{})
	st := e.stores[dpm1]
	// /slow/pruned holds 64 subdirectories; /slow/z* entries come after.
	mkdirAll(t, e, "/slow/pruned")
	for i := 0; i < 64; i++ {
		if err := st.Mkdir(fmt.Sprintf("/slow/pruned/sub%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	st.Put("/slow/zfile", []byte("z"))
	// Slow every PROPFIND down so pruning lands while listings are queued.
	e.faults[dpm1].Set("*", faults.Fault{Delay: 2 * time.Millisecond})

	err := e.client.Walk(context.Background(), dpm1, "/slow", func(inf Info) error {
		if inf.Path == "/slow/pruned" {
			return SkipDir
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Serial semantics: /slow, /slow/pruned (pruned), /slow/zfile. The
	// speculative engine may have started some of the 64 subtree listings
	// before the prune, but must not run all of them to completion.
	if pf := e.faults[dpm1].Requests("PROPFIND"); pf > 40 {
		t.Fatalf("server saw %d PROPFINDs despite pruning a 64-dir subtree", pf)
	}
}
