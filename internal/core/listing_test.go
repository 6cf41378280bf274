package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/url"
	"path"
	"runtime"
	"slices"
	"testing"

	"godavix/internal/storage"
)

// TestWalkEscapedNames: names that are not plain URL path characters — a
// space, '?', '%', '#', '&', non-ASCII — come back from a walk as hrefs
// that the client can send again. Every entry is emitted, in order, and
// each emitted Path can be Stat-ed and, for an object, fetched.
func TestWalkEscapedNames(t *testing.T) {
	st := storage.NewMemStore()
	for p, body := range escapedObjects {
		if err := st.Put(p, []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	// The store's own depth-first lexical order is what a walk must emit.
	var want []string
	var tree func(p string)
	tree = func(p string) {
		want = append(want, p)
		infos, err := st.List(p)
		if err != nil {
			return
		}
		for _, inf := range infos {
			tree(inf.Path)
		}
	}
	tree("/t")

	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism_%d", par), func(t *testing.T) {
			c, host := loopbackGateway(t, st, Options{Strategy: StrategyNone, WalkParallelism: par})
			ctx := context.Background()
			var got []Info
			if err := c.Walk(ctx, host, "/t", func(inf Info) error {
				got = append(got, inf)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, inf := range got {
				name, err := url.PathUnescape(inf.Path)
				if err != nil {
					t.Fatalf("href %q: %v", inf.Path, err)
				}
				names = append(names, name)
			}
			if !slices.Equal(names, want) {
				t.Fatalf("walk emitted %q, want %q", names, want)
			}
			for i, inf := range got {
				sinf, err := c.Stat(ctx, host, inf.Path)
				if err != nil || sinf.Dir != inf.Dir {
					t.Fatalf("Stat(%q) = %+v, %v; listed Dir %v", inf.Path, sinf, err, inf.Dir)
				}
				if inf.Dir {
					continue
				}
				body, err := c.Get(ctx, host, inf.Path)
				if err != nil || string(body) != escapedObjects[names[i]] {
					t.Fatalf("Get(%q) = %q, %v; want %q", inf.Path, body, err, escapedObjects[names[i]])
				}
			}
		})
	}
}

// TestWalkAllocBudget: a walk copies no listing. Against an in-process
// gateway over loopback TCP, a walk of 10 011 entries costs the whole
// process, client and gateway together, what remains per entry: the
// client's href string and the requests' small change. Measured 42–66 B
// per entry (10 runs); with the gateway's fresh listing and the client's
// exact-size copy on every PROPFIND it was 206–213. Under the race
// detector, which drops a share of sync.Pool puts, it reads 132–184
// (258–299 with both copies).
func TestWalkAllocBudget(t *testing.T) {
	st := storage.NewMemStore()
	const dirs, files = 10, 1000
	for d := 0; d < dirs; d++ {
		for f := 0; f < files; f++ {
			if err := st.Put(fmt.Sprintf("/w/d%03d/f%04d.dat", d, f), []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries := 1 + dirs*(files+1)
	c, host := loopbackGateway(t, st, Options{Strategy: StrategyNone, WalkParallelism: 4})
	ctx := context.Background()
	n := 0
	walk := func() {
		n = 0
		if err := c.Walk(ctx, host, "/w", func(Info) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n != entries {
			t.Fatalf("walk emitted %d entries, want %d", n, entries)
		}
	}
	walk() // the conns, the pools
	const walks = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < walks; i++ {
		walk()
	}
	runtime.ReadMemStats(&after)
	perEntry := float64(after.TotalAlloc-before.TotalAlloc) / float64(walks*entries)
	t.Logf("%.1f B allocated per entry", perEntry)
	if budget := raceBudget(90, 240); perEntry > budget {
		t.Fatalf("walk allocates %.1f B per entry, budget %.0f", perEntry, budget)
	}
}

// TestWalkInfosOutliveListings: every Info a parallel walk hands its
// callback stays the caller's after the walk returns, whatever the walk
// did with the pooled listing it came from. A listing handed back or
// reused while its entries were still being emitted would show up as an
// emptied or foreign Path.
func TestWalkInfosOutliveListings(t *testing.T) {
	st := storage.NewMemStore()
	for top := 0; top < 20; top++ {
		for sub := 0; sub < 20; sub++ {
			for f := 0; f < 3; f++ {
				if err := st.Put(fmt.Sprintf("/n/t%02d/s%02d/f%d.dat", top, sub, f), bytes.Repeat([]byte{'x'}, top+sub+f)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Every fifth top-level subtree and every leaf ending in 7 is pruned.
	prune := func(inf Info) bool {
		base := path.Base(inf.Path)
		return inf.Dir && len(base) == 3 && (base[0] == 't' && (base[2] == '3' || base[2] == '8') || base[0] == 's' && base[2] == '7')
	}
	walk := func(par int, ctx context.Context, stop int, cancel func()) ([]Info, error) {
		c, host := loopbackGateway(t, st, Options{Strategy: StrategyNone, WalkParallelism: par})
		var kept []Info
		err := c.Walk(ctx, host, "/n", func(inf Info) error {
			if kept = append(kept, inf); len(kept) == stop {
				cancel()
			}
			if prune(inf) {
				return SkipDir
			}
			return nil
		})
		return kept, err
	}
	ref, err := walk(1, context.Background(), -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) < 1000 {
		t.Fatalf("reference walk kept %d entries, want a tree of over 1000", len(ref))
	}
	same := func(t *testing.T, got []Info) {
		t.Helper()
		for i, inf := range got {
			if r := ref[i]; inf.Path != r.Path || inf.Size != r.Size || inf.Dir != r.Dir || !inf.ModTime.Equal(r.ModTime) {
				t.Fatalf("kept entry %d = %+v, the serial walk emitted %+v", i, inf, ref[i])
			}
		}
	}

	t.Run("whole", func(t *testing.T) {
		got, err := walk(4, context.Background(), -1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("kept %d entries, the serial walk %d", len(got), len(ref))
		}
		runtime.GC() // a listing reused after the walk would land now
		same(t, got)
	})
	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		got, err := walk(4, ctx, len(ref)/2, cancel)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if len(got) < len(ref)/2 || len(got) > len(ref) {
			t.Fatalf("kept %d entries, cancelled at %d of %d", len(got), len(ref)/2, len(ref))
		}
		runtime.GC()
		same(t, got)
	})
}
