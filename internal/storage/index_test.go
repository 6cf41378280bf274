package storage

import (
	"errors"
	"fmt"
	"path"
	"sync"
	"testing"
	"time"
)

// checkIndex asserts the child-index invariants over the whole namespace:
// every directory's children are strictly sorted by name, each names a
// live entry (the same one its map key holds) directly inside it, and every
// entry but the root is registered in its parent.
func checkIndex(t *testing.T, s *MemStore) {
	t.Helper()
	all := map[string]*memEntry{}
	for i := range s.shards {
		for p, e := range s.shards[i].entries {
			all[p] = e
		}
	}
	registered := map[string]bool{"/": true}
	for p, e := range all {
		if e.dir == nil {
			continue
		}
		for i, c := range e.dir.children {
			if i > 0 && e.dir.children[i-1].name() >= c.name() {
				t.Fatalf("%s: children %q, %q out of order", p, e.dir.children[i-1].name(), c.name())
			}
			if path.Dir(c.path) != p {
				t.Fatalf("%s: child %s is not directly inside it", p, c.path)
			}
			if all[c.path] != c.e {
				t.Fatalf("%s: child %s points at a dead entry", p, c.path)
			}
			registered[c.path] = true
		}
	}
	for p := range all {
		if !registered[p] {
			t.Fatalf("%s is in the namespace but not in its parent's index", p)
		}
	}
}

// TestListShowsReplacedObject: a Put over an object re-points the parent's
// index at the new entry, so List reports the new size and mtime.
func TestListShowsReplacedObject(t *testing.T) {
	s := NewMemStore()
	clock := time.Date(2014, 6, 30, 12, 0, 0, 0, time.UTC)
	s.now = func() time.Time { return clock }
	if err := s.Put("/d/f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(time.Hour)
	if err := s.Put("/d/f", []byte("version2")); err != nil {
		t.Fatal(err)
	}
	infos, err := s.List("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Size != 8 || !infos[0].ModTime.Equal(clock) || infos[0].Checksum != Checksum([]byte("version2")) {
		t.Fatalf("list after replace = %+v", infos)
	}
	checkIndex(t, s)
}

// TestIndexFollowsCopyMoveDelete runs the structural operations in orders
// that insert at the front, middle and end of a directory and checks the
// index after each.
func TestIndexFollowsCopyMoveDelete(t *testing.T) {
	s := NewMemStore()
	for _, name := range []string{"m", "c", "x", "a"} {
		if err := s.Put("/d/"+name, []byte(name)); err != nil {
			t.Fatal(err)
		}
		checkIndex(t, s)
	}
	steps := []struct {
		what string
		op   func() error
	}{
		{"copy to front", func() error { return s.Copy("/d/m", "/d/0") }},
		{"copy to middle", func() error { return s.Copy("/d/a", "/d/k") }},
		{"copy over existing", func() error { return s.Copy("/d/x", "/d/c") }},
		{"move to end", func() error { return s.Move("/d/0", "/d/z") }},
		{"move across directories", func() error { return s.Move("/d/k", "/e/k") }},
		{"move within, onto existing", func() error { return s.Move("/d/a", "/d/m") }},
		{"delete first", func() error { return s.Delete("/d/c") }},
		{"delete last", func() error { return s.Delete("/d/z") }},
	}
	for _, st := range steps {
		if err := st.op(); err != nil {
			t.Fatalf("%s: %v", st.what, err)
		}
		checkIndex(t, s)
	}
	want := []string{"m", "x"}
	infos, err := s.List("/d")
	if err != nil || len(infos) != len(want) {
		t.Fatalf("List /d = %+v, %v", infos, err)
	}
	for i, inf := range infos {
		if inf.Name != want[i] || inf.Path != "/d/"+want[i] {
			t.Fatalf("List /d[%d] = %+v, want %s", i, inf, want[i])
		}
	}
	if data, _, _ := s.Get("/d/m"); string(data) != "a" {
		t.Fatalf("/d/m = %q after moving /d/a onto it", data)
	}
	if err := s.Delete("/d"); err == nil {
		t.Fatal("deleting a non-empty directory succeeded")
	}
	for _, p := range []string{"/d/m", "/d/x", "/d"} {
		if err := s.Delete(p); err != nil {
			t.Fatalf("Delete %s: %v", p, err)
		}
		checkIndex(t, s)
	}
}

// TestListDuringSiblingChurn: List running against concurrent Put, Delete
// and Move of siblings always returns a sorted, duplicate-free listing
// (run under -race to check the index is only touched under its locks).
func TestListDuringSiblingChurn(t *testing.T) {
	s := NewMemStore()
	const n = 24
	name := func(i int) string { return fmt.Sprintf("/churn/f%02d", i) }
	for i := 0; i < n; i += 2 {
		if err := s.Put(name(i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a, b := name((i*7+w)%n), name((i*11+w*5)%n)
				switch (i + w) % 3 {
				case 0:
					s.Put(a, []byte("y"))
				case 1:
					s.Delete(a)
				default:
					s.Move(a, b)
				}
			}
		}(w)
	}
	for i := 0; i < 2000; i++ {
		infos, err := s.List("/churn")
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j < len(infos); j++ {
			if infos[j-1].Name >= infos[j].Name {
				close(stop)
				wg.Wait()
				t.Fatalf("listing not strictly sorted: %q then %q", infos[j-1].Name, infos[j].Name)
			}
		}
	}
	close(stop)
	wg.Wait()
	checkIndex(t, s)
}

// TestMemStoreListAllocs: List is one allocation per call, the result.
func TestMemStoreListAllocs(t *testing.T) {
	s := NewMemStore()
	for i := 0; i < 400; i++ {
		if err := s.Put(fmt.Sprintf("/wide/f%03d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(50, func() {
		if _, err := s.List("/wide"); err != nil {
			t.Fatal(err)
		}
	}); a != 1 {
		t.Fatalf("List: %.1f allocs per call, want 1", a)
	}
	if _, err := s.List("/wide/f000"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("List of an object: %v", err)
	}
}
