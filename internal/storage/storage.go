// Package storage provides the object-store backend shared by the HTTP
// (DPM-like) and XRootD-like servers: a hierarchical namespace of immutable
// byte blobs with stat metadata and checksums. Two implementations are
// provided: an in-memory store for simulations and tests, and a disk store
// for the standalone server binaries.
package storage

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"godavix/internal/digest"
)

// Common errors, comparable with errors.Is.
var (
	ErrNotFound = errors.New("storage: not found")
	ErrIsDir    = errors.New("storage: is a directory")
	ErrNotDir   = errors.New("storage: not a directory")
	ErrExists   = errors.New("storage: already exists")
)

// Info describes a namespace entry.
type Info struct {
	// Name is the base name of the entry.
	Name string
	// Path is the full cleaned path ("/store/f.rnt").
	Path string
	// Size is the object size in bytes (0 for directories).
	Size int64
	// ModTime is the last modification time.
	ModTime time.Time
	// Dir reports whether the entry is a directory.
	Dir bool
	// Checksum is the checksum of the content as "algo:hex" (the WLCG
	// convention): the algorithm the upload that stored it negotiated, else
	// crc32c ("crc32c:%08x"); empty for directories.
	Checksum string
}

// Store is the namespace interface served over HTTP and xrootd.
type Store interface {
	// Get returns the full content of the object at p.
	Get(p string) ([]byte, Info, error)
	// Put creates or replaces the object at p, creating parents.
	Put(p string, data []byte) error
	// Delete removes the object or empty directory at p.
	Delete(p string) error
	// Stat describes the entry at p.
	Stat(p string) (Info, error)
	// List returns the direct children of the directory at p, sorted by name.
	List(p string) ([]Info, error)
	// Mkdir creates a directory at p (parents required to exist).
	Mkdir(p string) error
	// Copy duplicates the object at src to dst, creating dst's parents.
	Copy(src, dst string) error
	// Move renames the object at src to dst, creating dst's parents. The
	// source entry is gone once dst exists.
	Move(src, dst string) error
}

// Checksum renders the WLCG-style checksum of data under digest.Default.
func Checksum(data []byte) string {
	return digest.Format32(digest.Default, digest.Sum32(digest.Default, data))
}

// Clean canonicalizes an object path to a rooted, slash-separated form.
// A path that is clean already comes back as is, without allocating.
func Clean(p string) string {
	if p = strings.TrimSpace(p); !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

// memEntry is one namespace entry in the flat sharded map: an immutable
// blob (files; data is never mutated after insertion, so readers may share
// the slice) or a directory with its children. Only a directory's child
// list ever changes; everything else is fixed before the entry is
// published, so a reader holding the parent's lock may describe a child
// without taking the child's.
type memEntry struct {
	data     []byte
	checksum string // computed once at Put
	modTime  time.Time
	dir      *memDir // nil for objects
}

// memDir is a directory's child index: its children sorted by name. It is
// written only under the shard locks of both the directory and the child
// concerned, and read under the directory's.
type memDir struct {
	children []memChild
}

// memChild is one registered child: its clean path — the same string that
// keys it in the shard map — and its entry.
type memChild struct {
	path string
	e    *memEntry
}

// name is the child's base name.
func (c memChild) name() string { return c.path[strings.LastIndexByte(c.path, '/')+1:] }

// find returns where the child called name is, or belongs, in d.children.
func (d *memDir) find(name string) (int, bool) {
	return slices.BinarySearchFunc(d.children, name, func(c memChild, name string) int {
		return strings.Compare(c.name(), name)
	})
}

// set registers (or re-points) the child at clean path p. Appending past
// the last name — how directories are usually filled — is O(1).
func (d *memDir) set(p string, e *memEntry) {
	c := memChild{path: p, e: e}
	i, found := len(d.children), false
	if name := c.name(); i > 0 && d.children[i-1].name() >= name {
		i, found = d.find(name)
	}
	if found {
		d.children[i] = c
		return
	}
	d.children = slices.Insert(d.children, i, c)
}

// remove deregisters the child called name, if present.
func (d *memDir) remove(name string) {
	if i, found := d.find(name); found {
		d.children = slices.Delete(d.children, i, i+1)
	}
}

// memShards spreads the namespace over independent locks (the same FNV-1a
// pattern as internal/pool's host shards). A power of two so the hash maps
// with a mask; 32 shards keep one hot directory from serializing writes to
// the rest of the namespace under thousands of concurrent gateway requests.
const memShards = 32

// memShard guards the subset of paths hashing onto it.
type memShard struct {
	mu      sync.RWMutex
	entries map[string]*memEntry
}

// MemStore is an in-memory Store, safe for concurrent use. The namespace is
// a flat map from clean path to entry, fnv-sharded by path: operations on
// paths in different shards never contend. Structural operations that touch
// several paths (registering an object in its parent directory, Copy/Move)
// acquire every involved shard in index order — the ordered multi-key
// discipline that makes deadlock impossible regardless of which direction
// concurrent Copy("/a","/b") and Copy("/b","/a") run.
type MemStore struct {
	shards [memShards]memShard
	now    func() time.Time
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	s := &MemStore{now: time.Now}
	for i := range s.shards {
		s.shards[i].entries = make(map[string]*memEntry)
	}
	root := s.shardFor("/")
	root.entries["/"] = &memEntry{dir: &memDir{}, modTime: s.now()}
	return s
}

// shardIdx hashes a clean path (FNV-1a) onto its shard index.
func shardIdx(p string) int {
	h := uint32(2166136261)
	for i := 0; i < len(p); i++ {
		h = (h ^ uint32(p[i])) * 16777619
	}
	return int(h & (memShards - 1))
}

func (s *MemStore) shardFor(p string) *memShard { return &s.shards[shardIdx(p)] }

// lockAll write-locks the shards of every path in order of shard index,
// each shard once, and returns the unlock. Taking multi-path locks only
// through this helper is what guarantees lock-order safety: two goroutines
// locking overlapping path sets always acquire the shared shards in the
// same (index) order.
func (s *MemStore) lockAll(paths ...string) (unlock func()) {
	var idxs []int
	for _, p := range paths {
		idxs = append(idxs, shardIdx(p))
	}
	sort.Ints(idxs)
	locked := idxs[:0]
	for _, i := range idxs {
		if len(locked) > 0 && locked[len(locked)-1] == i {
			continue // same shard: one lock covers both paths
		}
		s.shards[i].mu.Lock()
		locked = append(locked, i)
	}
	return func() {
		for j := len(locked) - 1; j >= 0; j-- {
			s.shards[locked[j]].mu.Unlock()
		}
	}
}

func splitPath(p string) []string {
	p = strings.Trim(Clean(p), "/")
	if p == "" {
		return nil
	}
	return strings.Split(p, "/")
}

// infoFor describes the entry at clean path p.
func infoFor(p string, e *memEntry) Info {
	inf := Info{
		Name:    path.Base(p),
		Path:    p,
		ModTime: e.modTime,
		Dir:     e.dir != nil,
	}
	if e.dir == nil {
		inf.Size = int64(len(e.data))
		inf.Checksum = e.checksum
	}
	return inf
}

// getEntry reads the entry at clean path p under its shard's read lock.
func (s *MemStore) getEntry(p string) *memEntry {
	sh := s.shardFor(p)
	sh.mu.RLock()
	e := sh.entries[p]
	sh.mu.RUnlock()
	return e
}

// ensureDir walks down to clean path dir, creating missing directories and
// registering each in its parent, one ordered parent+child shard pair at a
// time. A parent vanishing mid-walk (concurrent Delete of a just-created
// empty directory) restarts the walk; the bound only guards against a bug
// ever looping forever.
func (s *MemStore) ensureDir(dir string) error {
	parts := splitPath(dir)
restart:
	for attempt := 0; attempt < 1000; attempt++ {
		cur := "/"
		for _, part := range parts {
			child := cur + part
			if cur != "/" {
				child = cur + "/" + part
			}
			unlock := s.lockAll(cur, child)
			pe := s.shardFor(cur).entries[cur]
			if pe == nil {
				unlock()
				continue restart
			}
			if pe.dir == nil {
				unlock()
				return ErrNotDir
			}
			// An existing directory is registered already: entries and
			// their registrations are only ever written together.
			ce := s.shardFor(child).entries[child]
			switch {
			case ce == nil:
				ce = &memEntry{dir: &memDir{}, modTime: s.now()}
				s.shardFor(child).entries[child] = ce
				pe.dir.set(child, ce)
			case ce.dir == nil:
				unlock()
				return ErrNotDir
			}
			unlock()
			cur = child
		}
		return nil
	}
	return fmt.Errorf("storage: ensureDir %s: namespace churn did not settle", dir)
}

// Get implements Store.
func (s *MemStore) Get(p string) ([]byte, Info, error) {
	p = Clean(p)
	e := s.getEntry(p)
	if e == nil {
		return nil, Info{}, ErrNotFound
	}
	if e.dir != nil {
		return nil, Info{}, ErrIsDir
	}
	// Callers must not mutate the returned slice; the HTTP and xrootd
	// servers only read it.
	return e.data, infoFor(p, e), nil
}

// Put implements Store, creating parent directories as needed.
func (s *MemStore) Put(p string, data []byte) error {
	buf := make([]byte, len(data))
	copy(buf, data)
	return s.PutOwned(p, buf)
}

// PutOwned stores data at p taking ownership of the slice: the caller must
// not retain or mutate it afterwards. It skips Put's defensive copy.
func (s *MemStore) PutOwned(p string, data []byte) error {
	return s.PutSummed(p, data, digest.Default, digest.Sum32(digest.Default, data))
}

// PutSummed is PutOwned for a caller that already holds a 32-bit digest of
// data — the gateway hashes upload bodies as they stream in, so a commit
// costs the store no pass over the bytes. sum must be algo(data); it
// becomes Info.Checksum as given.
func (s *MemStore) PutSummed(p string, data []byte, algo digest.Algo, sum uint32) error {
	p = Clean(p)
	if p == "/" {
		return ErrIsDir
	}
	entry := &memEntry{data: data, checksum: digest.Format32(algo, sum), modTime: s.now()}
	return s.insert(p, entry, false)
}

// insert places entry at clean path p, creating parents and registering p
// in its parent directory under one ordered parent+child lock — the write
// and the registration are atomic, so a concurrent Delete can never leave
// a statable-but-unlisted phantom. exclusive refuses to replace an
// existing entry (Mkdir semantics).
func (s *MemStore) insert(p string, entry *memEntry, exclusive bool) error {
	parent := path.Dir(p)
	for attempt := 0; attempt < 1000; attempt++ {
		if entry.dir == nil {
			if err := s.ensureDir(parent); err != nil {
				return err
			}
		}
		unlock := s.lockAll(parent, p)
		pe := s.shardFor(parent).entries[parent]
		if pe == nil {
			unlock()
			if entry.dir != nil {
				// Mkdir requires parents to exist.
				return ErrNotFound
			}
			continue // parent deleted between ensureDir and lock: re-ensure
		}
		if pe.dir == nil {
			unlock()
			if entry.dir != nil {
				return ErrNotFound
			}
			return ErrNotDir
		}
		old := s.shardFor(p).entries[p]
		if old != nil && (old.dir != nil || exclusive) {
			unlock()
			if exclusive {
				return ErrExists
			}
			return ErrIsDir
		}
		s.shardFor(p).entries[p] = entry
		pe.dir.set(p, entry)
		unlock()
		return nil
	}
	return fmt.Errorf("storage: insert %s: namespace churn did not settle", p)
}

// Delete implements Store. Directories must be empty. The entry removal and
// its deregistration from the parent happen under one ordered lock pair.
func (s *MemStore) Delete(p string) error {
	p = Clean(p)
	if p == "/" {
		return ErrIsDir
	}
	parent := path.Dir(p)
	unlock := s.lockAll(parent, p)
	defer unlock()
	e := s.shardFor(p).entries[p]
	if e == nil {
		return ErrNotFound
	}
	if e.dir != nil && len(e.dir.children) > 0 {
		return fmt.Errorf("storage: directory not empty: %s", p)
	}
	delete(s.shardFor(p).entries, p)
	if pe := s.shardFor(parent).entries[parent]; pe != nil && pe.dir != nil {
		pe.dir.remove(path.Base(p))
	}
	return nil
}

// Stat implements Store.
func (s *MemStore) Stat(p string) (Info, error) {
	p = Clean(p)
	e := s.getEntry(p)
	if e == nil {
		return Info{}, ErrNotFound
	}
	return infoFor(p, e), nil
}

// List implements Store: one copy of the directory's sorted child index,
// under the directory's shard read lock alone (child entries are immutable
// once registered, and are registered and replaced under this lock).
func (s *MemStore) List(p string) ([]Info, error) {
	p = Clean(p)
	sh := s.shardFor(p)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e := sh.entries[p]
	if e == nil {
		return nil, ErrNotFound
	}
	if e.dir == nil {
		return nil, ErrNotDir
	}
	out := make([]Info, len(e.dir.children))
	for i, c := range e.dir.children {
		out[i] = infoFor(c.path, c.e)
	}
	return out, nil
}

// Mkdir implements Store.
func (s *MemStore) Mkdir(p string) error {
	p = Clean(p)
	if p == "/" {
		return ErrExists
	}
	return s.insert(p, &memEntry{dir: &memDir{}, modTime: s.now()}, true)
}

// Copy implements Store: dst becomes a new object with src's bytes. Blobs
// are immutable, so the copy shares the data slice. Source, destination and
// destination parent shards are taken in one ordered acquisition, making
// the read-src/write-dst/register-dst step atomic.
func (s *MemStore) Copy(src, dst string) error {
	return s.twoKey(src, dst, false)
}

// Move implements Store: src is renamed to dst. The removal of src (entry +
// parent registration) and the creation of dst are one atomic step under
// the ordered multi-shard lock — no moment exists where both or neither
// path holds the object.
func (s *MemStore) Move(src, dst string) error {
	return s.twoKey(src, dst, true)
}

// twoKey is the shared Copy/Move implementation: ensure dst's parents, then
// lock the up-to-four involved shards (src, src parent, dst, dst parent) in
// index order and perform every mutation inside.
func (s *MemStore) twoKey(src, dst string, remove bool) error {
	src, dst = Clean(src), Clean(dst)
	if src == "/" || dst == "/" {
		return ErrIsDir
	}
	if src == dst {
		e := s.getEntry(src)
		switch {
		case e == nil:
			return ErrNotFound
		case e.dir != nil:
			return ErrIsDir
		}
		return nil
	}
	srcParent, dstParent := path.Dir(src), path.Dir(dst)
	for attempt := 0; attempt < 1000; attempt++ {
		if err := s.ensureDir(dstParent); err != nil {
			return err
		}
		unlock := s.lockAll(src, srcParent, dst, dstParent)
		se := s.shardFor(src).entries[src]
		if se == nil {
			unlock()
			return ErrNotFound
		}
		if se.dir != nil {
			unlock()
			return ErrIsDir
		}
		de := s.shardFor(dst).entries[dst]
		if de != nil && de.dir != nil {
			unlock()
			return ErrIsDir
		}
		dpe := s.shardFor(dstParent).entries[dstParent]
		if dpe == nil || dpe.dir == nil {
			unlock()
			continue // destination parent vanished: re-ensure and retry
		}
		ne := &memEntry{data: se.data, checksum: se.checksum, modTime: s.now()}
		s.shardFor(dst).entries[dst] = ne
		dpe.dir.set(dst, ne)
		if remove {
			delete(s.shardFor(src).entries, src)
			if spe := s.shardFor(srcParent).entries[srcParent]; spe != nil && spe.dir != nil {
				spe.dir.remove(path.Base(src))
			}
		}
		unlock()
		return nil
	}
	return fmt.Errorf("storage: copy %s -> %s: namespace churn did not settle", src, dst)
}

// DiskStore is a Store rooted at a filesystem directory.
type DiskStore struct {
	root string
}

// NewDiskStore creates (if needed) and wraps root as a Store.
func NewDiskStore(root string) (*DiskStore, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	return &DiskStore{root: abs}, nil
}

func (s *DiskStore) fsPath(p string) string {
	return filepath.Join(s.root, filepath.FromSlash(strings.TrimPrefix(Clean(p), "/")))
}

func mapFSErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, fs.ErrNotExist):
		return ErrNotFound
	case errors.Is(err, fs.ErrExist):
		return ErrExists
	default:
		return err
	}
}

// Get implements Store.
func (s *DiskStore) Get(p string) ([]byte, Info, error) {
	fp := s.fsPath(p)
	st, err := os.Stat(fp)
	if err != nil {
		return nil, Info{}, mapFSErr(err)
	}
	if st.IsDir() {
		return nil, Info{}, ErrIsDir
	}
	data, err := os.ReadFile(fp)
	if err != nil {
		return nil, Info{}, mapFSErr(err)
	}
	return data, s.infoFromFS(p, st, data), nil
}

func (s *DiskStore) infoFromFS(p string, st fs.FileInfo, data []byte) Info {
	p = Clean(p)
	inf := Info{
		Name:    path.Base(p),
		Path:    p,
		ModTime: st.ModTime(),
		Dir:     st.IsDir(),
	}
	if !st.IsDir() {
		inf.Size = st.Size()
		if data != nil {
			inf.Checksum = Checksum(data)
		}
	}
	return inf
}

// Put implements Store.
func (s *DiskStore) Put(p string, data []byte) error {
	fp := s.fsPath(p)
	if err := os.MkdirAll(filepath.Dir(fp), 0o755); err != nil {
		return err
	}
	return os.WriteFile(fp, data, 0o644)
}

// Delete implements Store.
func (s *DiskStore) Delete(p string) error {
	fp := s.fsPath(p)
	if _, err := os.Stat(fp); err != nil {
		return mapFSErr(err)
	}
	return mapFSErr(os.Remove(fp))
}

// Stat implements Store.
func (s *DiskStore) Stat(p string) (Info, error) {
	st, err := os.Stat(s.fsPath(p))
	if err != nil {
		return Info{}, mapFSErr(err)
	}
	return s.infoFromFS(p, st, nil), nil
}

// List implements Store.
func (s *DiskStore) List(p string) ([]Info, error) {
	entries, err := os.ReadDir(s.fsPath(p))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, ErrNotFound
		}
		return nil, err
	}
	// os.ReadDir returns the entries sorted by name.
	dir := Clean(p)
	out := make([]Info, 0, len(entries))
	for _, e := range entries {
		st, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, s.infoFromFS(path.Join(dir, e.Name()), st, nil))
	}
	return out, nil
}

// Mkdir implements Store.
func (s *DiskStore) Mkdir(p string) error {
	fp := s.fsPath(p)
	if _, err := os.Stat(fp); err == nil {
		return ErrExists
	}
	return mapFSErr(os.Mkdir(fp, 0o755))
}

// Copy implements Store by reading src and writing dst.
func (s *DiskStore) Copy(src, dst string) error {
	data, inf, err := s.Get(src)
	if err != nil {
		return err
	}
	_ = inf
	return s.Put(dst, data)
}

// Move implements Store via rename, creating dst's parents.
func (s *DiskStore) Move(src, dst string) error {
	sp := s.fsPath(src)
	st, err := os.Stat(sp)
	if err != nil {
		return mapFSErr(err)
	}
	if st.IsDir() {
		return ErrIsDir
	}
	dp := s.fsPath(dst)
	if err := os.MkdirAll(filepath.Dir(dp), 0o755); err != nil {
		return err
	}
	return mapFSErr(os.Rename(sp, dp))
}
