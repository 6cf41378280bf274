package storage

import (
	"bytes"
	"errors"
	"fmt"
	"hash/adler32"
	"hash/crc32"
	"testing"
	"testing/quick"

	"godavix/internal/digest"
)

// stores returns both implementations so every test runs against each.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"mem": NewMemStore(), "disk": disk}
}

func TestPutGetStat(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			data := []byte("event data")
			if err := s.Put("/store/run1/f.rnt", data); err != nil {
				t.Fatal(err)
			}
			got, inf, err := s.Get("/store/run1/f.rnt")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("data = %q", got)
			}
			if inf.Size != int64(len(data)) || inf.Dir || inf.Name != "f.rnt" {
				t.Fatalf("info = %+v", inf)
			}
			if inf.Checksum != Checksum(data) {
				t.Fatalf("checksum = %q", inf.Checksum)
			}
			st, err := s.Stat("/store/run1/f.rnt")
			if err != nil || st.Size != inf.Size {
				t.Fatalf("stat = %+v err=%v", st, err)
			}
		})
	}
}

func TestGetMissing(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if _, _, err := s.Get("/nope"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("err = %v", err)
			}
			if _, err := s.Stat("/nope"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("stat err = %v", err)
			}
		})
	}
}

func TestPutOverwrite(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			s.Put("/f", []byte("v1"))
			s.Put("/f", []byte("version2"))
			got, inf, err := s.Get("/f")
			if err != nil || string(got) != "version2" || inf.Size != 8 {
				t.Fatalf("got %q %+v %v", got, inf, err)
			}
		})
	}
}

func TestDelete(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			s.Put("/d/f", []byte("x"))
			if err := s.Delete("/d/f"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Stat("/d/f"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("err = %v", err)
			}
			if err := s.Delete("/d/f"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("double delete err = %v", err)
			}
		})
	}
}

func TestDeleteNonEmptyDirFails(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			s.Put("/d/f", []byte("x"))
			if err := s.Delete("/d"); err == nil {
				t.Fatal("expected non-empty dir delete to fail")
			}
		})
	}
}

func TestListSorted(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			s.Put("/dir/c", []byte("3"))
			s.Put("/dir/a", []byte("1"))
			s.Put("/dir/b", []byte("2"))
			infos, err := s.List("/dir")
			if err != nil {
				t.Fatal(err)
			}
			if len(infos) != 3 || infos[0].Name != "a" || infos[2].Name != "c" {
				t.Fatalf("list = %+v", infos)
			}
		})
	}
}

func TestListFileFails(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			s.Put("/f", []byte("x"))
			if _, err := s.List("/f"); err == nil {
				t.Fatal("expected list on file to fail")
			}
		})
	}
}

func TestMkdirSemantics(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Mkdir("/newdir"); err != nil {
				t.Fatal(err)
			}
			inf, err := s.Stat("/newdir")
			if err != nil || !inf.Dir {
				t.Fatalf("stat = %+v err=%v", inf, err)
			}
			if err := s.Mkdir("/newdir"); !errors.Is(err, ErrExists) {
				t.Fatalf("duplicate mkdir err = %v", err)
			}
			if err := s.Mkdir("/a/b/c"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("mkdir without parents err = %v", err)
			}
		})
	}
}

func TestGetDirFails(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			s.Mkdir("/d")
			if _, _, err := s.Get("/d"); !errors.Is(err, ErrIsDir) {
				t.Fatalf("err = %v", err)
			}
		})
	}
}

func TestClean(t *testing.T) {
	cases := map[string]string{
		"foo":      "/foo",
		"/a//b/":   "/a/b",
		"/a/../b":  "/b",
		"":         "/",
		"/../../x": "/x",
		"/a/./b":   "/a/b",
	}
	for in, want := range cases {
		if got := Clean(in); got != want {
			t.Errorf("Clean(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestDiskStoreEscapePrevented(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("/../../outside", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// The object must land inside the root, reachable at its cleaned path.
	if _, _, err := s.Get("/outside"); err != nil {
		t.Fatalf("cleaned path not found: %v", err)
	}
}

func TestChecksumFormat(t *testing.T) {
	c := Checksum([]byte("hello"))
	if want := fmt.Sprintf("crc32c:%08x", crc32.Checksum([]byte("hello"), crc32.MakeTable(crc32.Castagnoli))); c != want {
		t.Fatalf("checksum = %q, want %q", c, want)
	}
	if Checksum([]byte("hello")) != c {
		t.Fatal("checksum not deterministic")
	}
	if Checksum([]byte("hellp")) == c {
		t.Fatal("checksum collision on different data")
	}
}

// TestMemStoreRoundTripProperty: put-then-get returns exactly what was put,
// for arbitrary path suffixes and payloads.
func TestMemStoreRoundTripProperty(t *testing.T) {
	s := NewMemStore()
	i := 0
	prop := func(data []byte) bool {
		i++
		p := fmt.Sprintf("/prop/%d/obj", i)
		if err := s.Put(p, data); err != nil {
			return false
		}
		got, inf, err := s.Get(p)
		return err == nil && bytes.Equal(got, data) && inf.Size == int64(len(data))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestMemStoreIsolation: mutating the caller's buffer after Put must not
// change stored content.
func TestMemStoreIsolation(t *testing.T) {
	s := NewMemStore()
	buf := []byte("immutable")
	s.Put("/f", buf)
	buf[0] = 'X'
	got, _, _ := s.Get("/f")
	if string(got) != "immutable" {
		t.Fatalf("stored data aliased caller buffer: %q", got)
	}
}

// TestMemStorePutVariantsAgree: Put copies, PutOwned and PutSummed keep the
// caller's slice, and all three record the same checksum for the same bytes
// — PutSummed by taking the caller's word for it, under the algorithm it
// names.
func TestMemStorePutVariantsAgree(t *testing.T) {
	s := NewMemStore()
	data := []byte("the same bytes three ways")
	owned := append([]byte(nil), data...)
	summed := append([]byte(nil), data...)
	if err := errors.Join(
		s.Put("/copied", data),
		s.PutOwned("/owned", owned),
		s.PutSummed("/summed", summed, digest.CRC32C, digest.Sum32(digest.CRC32C, summed)),
		s.PutSummed("/adler", data, digest.Adler32, adler32.Checksum(data)),
	); err != nil {
		t.Fatal(err)
	}
	for p, kept := range map[string][]byte{"/copied": nil, "/owned": owned, "/summed": summed} {
		got, inf, err := s.Get(p)
		if err != nil || !bytes.Equal(got, data) || inf.Checksum != Checksum(data) {
			t.Fatalf("%s: %q checksum %q err=%v", p, got, inf.Checksum, err)
		}
		if kept != nil && &got[0] != &kept[0] {
			t.Fatalf("%s: the store copied a slice it was given to keep", p)
		}
	}
	if inf, _ := s.Stat("/adler"); inf.Checksum != fmt.Sprintf("adler32:%08x", adler32.Checksum(data)) {
		t.Fatalf("/adler: checksum %q, want the adler32 it was given", inf.Checksum)
	}
	if err := s.PutSummed("/", nil, digest.CRC32C, 1); !errors.Is(err, ErrIsDir) {
		t.Fatalf("PutSummed on the root: %v, want ErrIsDir", err)
	}
}

func TestPutIntoFileAsDirFails(t *testing.T) {
	s := NewMemStore()
	s.Put("/f", []byte("x"))
	if err := s.Put("/f/child", []byte("y")); err == nil {
		t.Fatal("expected put under a file to fail")
	}
}
