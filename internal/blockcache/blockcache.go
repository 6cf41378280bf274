// Package blockcache implements the client-side caching layer of the davix
// engine: a block-aligned LRU page cache shared by every file a client
// touches, a stride-learning read-ahead planner whose speculation goes out
// as coalesced (vectored, where the object size is known) requests, and a
// TTL'd stat/metadata cache with negative (404) entries.
//
// The paper (Devresse & Furano §2.2–§2.3) hides network round trips with
// pooled keep-alive sessions and TreeCache-style gathered reads; this
// package extends the same idea to repeated and strided access: once a
// block has crossed a high-RTT link it is served from memory, concurrent
// misses on one block are coalesced into a single GET (single-flight), and
// detected scans — contiguous or strided — and caller hints pull the next
// blocks asynchronously through the connection pool before the
// application asks for them. Speculation never fails a demand read: a
// reader that joins a failed speculative fetch fetches the block itself.
//
// The cache is storage-agnostic: callers hand it a Fetch function per read
// and the cache decides which block-aligned spans actually hit the network.
package blockcache

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// DefaultBlockSize is the block granularity used when Config.BlockSize is
// zero. 64 KiB amortizes one WAN round trip over a useful amount of data
// without blowing up small random reads.
const DefaultBlockSize = 64 << 10

// maxPlannerKeys bounds the planner's per-key access history; when
// exceeded the history is reset (costing at worst one missed read-ahead
// trigger per key, never correctness).
const maxPlannerKeys = 4096

// Fetch retrieves [off, off+length) of the remote object backing a cache
// key. The cache invokes it only for block-aligned spans — on demand misses
// and for read-ahead — so one Fetch call is one range GET. A result shorter
// than length means the object ends inside the span.
type Fetch func(ctx context.Context, off, length int64) ([]byte, error)

// Config sizes a Cache.
type Config struct {
	// Capacity is the total number of payload bytes kept across all keys.
	// Required (> 0).
	Capacity int64
	// BlockSize is the cache page size in bytes (default DefaultBlockSize).
	BlockSize int64
	// ReadAhead is the lookahead of the cache's StridePlanner: how many
	// predicted reads past the current one are kept in flight once a scan
	// is detected. 0 disables read-ahead, Hint included.
	ReadAhead int
	// Background is the context prefetch fetches run under, typically the
	// owning client's lifetime (default context.Background()). Cancelling
	// it stops in-flight prefetches.
	Background context.Context
	// OnHit, when non-nil, is invoked after demand reads served from
	// memory with the key and the number of blocks served. Called outside
	// the cache lock, possibly from several goroutines at once; must not
	// block.
	OnHit func(key string, blocks int64)
	// OnMiss, when non-nil, is invoked when a demand read needs blocks
	// that are not resident. Same calling rules as OnHit.
	OnMiss func(key string, blocks int64)
	// FetchVec, when non-nil, batches the speculative spans of an object
	// of known size into one vectored request. Without it, and whenever
	// the size is unknown, each span is one Fetch.
	FetchVec FetchVec
	// PrefetchBudget bounds the speculative bytes in flight at once; when
	// the budget is full further speculation is dropped (demand reads are
	// never throttled). 0 means unlimited.
	PrefetchBudget int64
	// OnPrefetchIssued, when non-nil, is invoked when speculation puts a
	// fetch on the wire (spans per request, total bytes). Must not block.
	OnPrefetchIssued func(key string, spans int, bytes int64)
	// OnPrefetchSettled, when non-nil, is invoked when a speculative
	// fetch completes, with the requested bytes and its error (nil on
	// success). Must not block.
	OnPrefetchSettled func(key string, bytes int64, err error)
}

// Stats are the cache's monotonic counters. Block counters count blocks,
// not bytes; stat counters are filled in by the owning client from its
// StatCache.
type Stats struct {
	// Hits counts blocks served from memory.
	Hits int64
	// Misses counts blocks that were not resident when a demand read
	// needed them.
	Misses int64
	// Evictions counts blocks dropped to make room at capacity.
	Evictions int64
	// Prefetched counts blocks successfully fetched by the read-ahead
	// engine.
	Prefetched int64
	// SingleFlightJoins counts reads that waited on another reader's
	// in-flight fetch of the same block instead of issuing their own.
	SingleFlightJoins int64
	// BytesCached is the current resident payload size.
	BytesCached int64
	// StatHits / StatMisses count metadata-cache lookups (including
	// negative 404 hits).
	StatHits, StatMisses int64
	// PrefetchIssuedSpans / PrefetchIssuedBytes count the speculative
	// fetch requests put on the wire and the bytes they asked for.
	PrefetchIssuedSpans, PrefetchIssuedBytes int64
	// PrefetchUsefulBytes counts prefetched bytes a demand read later
	// consumed; PrefetchWastedBytes counts prefetched bytes evicted or
	// invalidated untouched. Their ratio is the speculation accuracy.
	PrefetchUsefulBytes, PrefetchWastedBytes int64
	// PrefetchCancelled counts speculative fetches dropped before issue —
	// budget exhaustion, mainly.
	PrefetchCancelled int64
}

// blockKey addresses one cache page: a caller-chosen object key (davix uses
// "host\x00path") plus the block index within the object.
type blockKey struct {
	key string
	idx int64
}

type block struct {
	bk   blockKey
	data []byte
	// spec marks a speculatively fetched block no demand read has touched
	// yet: consumed -> useful bytes, evicted/invalidated -> wasted bytes.
	spec bool
}

// flight is one in-progress block fetch; concurrent readers of the same
// block wait on done instead of issuing duplicate GETs.
type flight struct {
	done chan struct{}
	data []byte
	err  error
	gen  uint64
	// spec marks a speculative fetch: its failure is never a joiner's.
	spec bool
}

// Cache is a block-aligned LRU page cache with single-flight miss
// coalescing and asynchronous planner-driven read-ahead. It is safe for
// concurrent use.
type Cache struct {
	cap    int64
	bs     int64
	bg     context.Context
	onHit  func(key string, blocks int64)
	onMiss func(key string, blocks int64)
	// planner is nil when read-ahead is off (Config.ReadAhead == 0).
	planner  *StridePlanner
	fetchVec FetchVec
	budget   int64

	onPfIssued  func(key string, spans int, bytes int64)
	onPfSettled func(key string, bytes int64, err error)

	mu       sync.Mutex
	lru      *list.List // of *block; front = most recently used
	blocks   map[blockKey]*list.Element
	used     int64
	inflight map[blockKey]*flight
	// pfInFlight is the speculative byte volume currently reserved
	// against the budget. Guarded by mu.
	pfInFlight int64
	// gen is a cache-wide generation counter bumped by every Invalidate;
	// fetches and PutSpan callers snapshot it before touching the network
	// so a racing invalidation fences their (possibly stale) result out.
	gen uint64

	hits, misses, evictions, prefetched, joins atomic.Int64

	pfIssuedSpans, pfIssuedBytes, pfUseful, pfWasted, pfCancelled atomic.Int64
}

// New creates a Cache. Capacity must be positive; BlockSize defaults to
// DefaultBlockSize and Background to context.Background().
func New(cfg Config) *Cache {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = DefaultBlockSize
	}
	if cfg.Background == nil {
		cfg.Background = context.Background()
	}
	var planner *StridePlanner
	if cfg.ReadAhead > 0 {
		planner = NewStridePlanner(cfg.ReadAhead)
	}
	return &Cache{
		cap:         cfg.Capacity,
		bs:          cfg.BlockSize,
		bg:          cfg.Background,
		onHit:       cfg.OnHit,
		onMiss:      cfg.OnMiss,
		planner:     planner,
		fetchVec:    cfg.FetchVec,
		budget:      cfg.PrefetchBudget,
		onPfIssued:  cfg.OnPrefetchIssued,
		onPfSettled: cfg.OnPrefetchSettled,
		lru:         list.New(),
		blocks:      make(map[blockKey]*list.Element),
		inflight:    make(map[blockKey]*flight),
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	bytes := c.used
	c.mu.Unlock()
	return Stats{
		Hits:                c.hits.Load(),
		Misses:              c.misses.Load(),
		Evictions:           c.evictions.Load(),
		Prefetched:          c.prefetched.Load(),
		SingleFlightJoins:   c.joins.Load(),
		BytesCached:         bytes,
		PrefetchIssuedSpans: c.pfIssuedSpans.Load(),
		PrefetchIssuedBytes: c.pfIssuedBytes.Load(),
		PrefetchUsefulBytes: c.pfUseful.Load(),
		PrefetchWastedBytes: c.pfWasted.Load(),
		PrefetchCancelled:   c.pfCancelled.Load(),
	}
}

// Len reports the number of resident blocks.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Contains reports whether the block holding byte off of key is resident,
// without touching LRU order or counters.
func (c *Cache) Contains(key string, off int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.blocks[blockKey{key, off / c.bs}]
	return ok
}

// Generation snapshots the invalidation generation. Callers that fetch
// object data outside the cache (whole-object GETs, vectored reads) take it
// before the network round trip and pass it to PutSpan, which then refuses
// to install the bytes if any Invalidate happened in between.
func (c *Cache) Generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// ReadThrough fills p with bytes [off, off+len(p)) of the object named key,
// serving resident blocks from memory and fetching missing ones with fetch.
// size is the object size when known (the caller must then keep the request
// within it) or -1 when unknown, in which case a short block marks end of
// object and ReadThrough returns the bytes available. A detected scan,
// contiguous or strided, triggers asynchronous read-ahead of the
// blocks the planner predicts.
func (c *Cache) ReadThrough(ctx context.Context, key string, size int64, p []byte, off int64, fetch Fetch) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	want := int64(len(p))
	first := off / c.bs
	last := (off + want - 1) / c.bs
	n := 0
	for idx := first; idx <= last; idx++ {
		blockLen := c.blockLen(size, idx)
		data, err := c.getBlock(ctx, key, idx, blockLen, fetch)
		if err != nil {
			return n, err
		}
		from := off + int64(n) - idx*c.bs
		if from >= int64(len(data)) {
			break // object ends inside this short block
		}
		n += copy(p[n:], data[from:])
		if int64(len(data)) < blockLen {
			break
		}
	}
	if c.planner != nil {
		c.prefetchRuns(key, size, c.planner.Plan(key, first, last), fetch)
	}
	return n, nil
}

// getBlock returns the payload of block idx of key for a demand read: from
// memory, by joining an in-flight fetch, or by fetching
// [idx*bs, idx*bs+blockLen) itself.
func (c *Cache) getBlock(ctx context.Context, key string, idx, blockLen int64, fetch Fetch) ([]byte, error) {
	bk := blockKey{key, idx}
	for {
		c.mu.Lock()
		if el, ok := c.blocks[bk]; ok {
			c.lru.MoveToFront(el)
			b := el.Value.(*block)
			c.consumeLocked(b)
			c.mu.Unlock()
			c.hits.Add(1)
			if c.onHit != nil {
				c.onHit(key, 1)
			}
			return b.data, nil
		}
		if fl, ok := c.inflight[bk]; ok {
			c.mu.Unlock()
			c.joins.Add(1)
			select {
			case <-fl.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			// A flight that failed because its owner's own context was
			// cancelled, or a speculative one, failed for reasons that are
			// not ours while our context is alive: go around and fetch the
			// block ourselves.
			cancelled := errors.Is(fl.err, context.Canceled) || errors.Is(fl.err, context.DeadlineExceeded)
			if fl.err != nil && (fl.spec || cancelled) && ctx.Err() == nil {
				continue
			}
			if fl.spec && fl.err == nil {
				c.mu.Lock()
				if el, ok := c.blocks[bk]; ok {
					c.consumeLocked(el.Value.(*block))
				}
				c.mu.Unlock()
			}
			return fl.data, fl.err
		}
		fl := &flight{done: make(chan struct{}), gen: c.gen}
		c.inflight[bk] = fl
		c.mu.Unlock()

		c.misses.Add(1)
		if c.onMiss != nil {
			c.onMiss(key, 1)
		}
		data, err := fetch(ctx, idx*c.bs, blockLen)
		if err == nil && int64(len(data)) > blockLen {
			data = data[:blockLen]
		}
		fl.data, fl.err = data, err

		c.mu.Lock()
		delete(c.inflight, bk)
		if err == nil && len(data) > 0 && c.gen == fl.gen {
			// No Invalidate raced this fetch: safe to keep.
			c.insertLocked(bk, data, false)
			if int64(len(data)) < blockLen {
				c.learnEOF(key, idx+1)
			}
		}
		c.mu.Unlock()
		close(fl.done)
		return data, err
	}
}

// consumeLocked records that a demand read used b: a prefetched block's
// bytes turn useful. Caller holds mu.
func (c *Cache) consumeLocked(b *block) {
	if b.spec {
		b.spec = false
		c.pfUseful.Add(int64(len(b.data)))
	}
}

// learnEOF records that block idx is the first one past the end of key's
// object, bounding future read-ahead. Safe under mu: the planner never
// calls back into the cache.
func (c *Cache) learnEOF(key string, idx int64) {
	if c.planner != nil {
		c.planner.LearnEOF(key, idx)
	}
}

// insertLocked adds a block (spec marks it speculative) and evicts from
// the LRU tail to stay within capacity. Caller holds mu.
func (c *Cache) insertLocked(bk blockKey, data []byte, spec bool) {
	if _, ok := c.blocks[bk]; ok {
		return
	}
	c.blocks[bk] = c.lru.PushFront(&block{bk: bk, data: data, spec: spec})
	c.used += int64(len(data))
	for c.used > c.cap && c.lru.Len() > 0 {
		c.removeLocked(c.lru.Back())
		c.evictions.Add(1)
	}
}

// removeLocked drops one block. Caller holds mu.
func (c *Cache) removeLocked(el *list.Element) {
	b := el.Value.(*block)
	c.lru.Remove(el)
	delete(c.blocks, b.bk)
	c.used -= int64(len(b.data))
	if b.spec {
		// Prefetched, never consumed: the speculation missed.
		c.pfWasted.Add(int64(len(b.data)))
	}
}

// PeekSpan copies [off, off+len(p)) of key into p if every covering block
// is resident, reporting whether it served the whole span. It never touches
// the network; vectored reads use it to split cached fragments from the
// ones worth a multi-range request. Counters stay block-symmetric: a served
// span counts one hit per block, a failed one one miss per absent block.
func (c *Cache) PeekSpan(key string, p []byte, off int64) bool {
	if len(p) == 0 {
		return true
	}
	want := int64(len(p))
	first := off / c.bs
	last := (off + want - 1) / c.bs
	c.mu.Lock()
	var missing int64
	for idx := first; idx <= last; idx++ {
		if _, ok := c.blocks[blockKey{key, idx}]; !ok {
			missing++
		}
	}
	if missing > 0 {
		c.mu.Unlock()
		c.misses.Add(missing)
		if c.onMiss != nil {
			c.onMiss(key, missing)
		}
		return false
	}
	n := 0
	for idx := first; idx <= last; idx++ {
		el := c.blocks[blockKey{key, idx}]
		data := el.Value.(*block).data
		from := off + int64(n) - idx*c.bs
		if from >= int64(len(data)) {
			c.mu.Unlock()
			return false // span extends past end of object
		}
		n += copy(p[n:], data[from:])
	}
	if int64(n) < want {
		c.mu.Unlock()
		return false
	}
	for idx := first; idx <= last; idx++ {
		el := c.blocks[blockKey{key, idx}]
		c.consumeLocked(el.Value.(*block))
		c.lru.MoveToFront(el)
	}
	c.mu.Unlock()
	c.hits.Add(last - first + 1)
	if c.onHit != nil {
		c.onHit(key, last-first+1)
	}
	return true
}

// PutSpan inserts the blocks fully covered by data (the object's content at
// [off, off+len(data))) without any network traffic — e.g. the fragments a
// vectored read just fetched, a whole-object GET, or the body of an upload
// this client just performed (write-through: the writer knows the new
// content). gen must be a Generation() snapshot taken before the data was
// fetched — or, for a writer, after its own post-upload Invalidate: if any
// other Invalidate happened since, the possibly-stale span is dropped. eof
// marks that data ends exactly at the object's end, allowing the trailing
// partial block to be cached too.
func (c *Cache) PutSpan(key string, gen uint64, off int64, data []byte, eof bool) {
	end := off + int64(len(data))
	idx := (off + c.bs - 1) / c.bs // first block starting inside the span
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen != gen {
		return
	}
	for ; idx*c.bs < end; idx++ {
		blockEnd := idx*c.bs + c.bs
		if blockEnd > end {
			if !eof {
				break
			}
			blockEnd = end
		}
		bk := blockKey{key, idx}
		if _, ok := c.blocks[bk]; ok {
			continue
		}
		if _, ok := c.inflight[bk]; ok {
			continue
		}
		c.insertLocked(bk, append([]byte(nil), data[idx*c.bs-off:blockEnd-off]...), false)
	}
}

// Invalidate drops every resident block of key and bumps the generation so
// in-flight fetches and pending PutSpans cannot install stale data.
// Mutating operations (Put, Delete) and File.Close call it. It returns the
// new generation: a writer that wants to write its own bytes through (its
// upload defined the content) passes exactly this value to PutSpan, so a
// concurrent writer's later invalidation — whose content should win —
// fences the span out. Snapshotting with a separate Generation() call
// after Invalidate would race that second writer.
func (c *Cache) Invalidate(key string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	if c.planner != nil {
		c.planner.Forget(key)
	}
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		if el.Value.(*block).bk.key == key {
			c.removeLocked(el)
		}
	}
	return c.gen
}
