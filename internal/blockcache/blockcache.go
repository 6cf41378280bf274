// Package blockcache is a block-aligned LRU read-through cache with
// single-flight miss coalescing, and a stride-learning read-ahead planner.
//
// No product package uses it: the davix client keeps no block or stat
// cache, and its read-ahead is rootio's window pipeline, the TTreeCache
// the paper's client relies on. The package exists only for the
// benchmark's per-layer replay (its blockcache.* metrics), until ROADMAP
// item 1(k) retires those metrics and the package with them.
package blockcache

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// defaultBlockSize is the block granularity used when Config.BlockSize is
// zero.
const defaultBlockSize = 64 << 10

// Fetch retrieves [off, off+length) of the remote object backing a cache
// key. The cache invokes it for the block-aligned span of each demand
// miss. A result shorter than length means the object ends inside the
// span.
type Fetch func(ctx context.Context, off, length int64) ([]byte, error)

// Config sizes a Cache.
type Config struct {
	// Capacity is the total number of payload bytes kept across all keys.
	// Required (> 0).
	Capacity int64
	// BlockSize is the cache page size in bytes (default 64 KiB).
	BlockSize int64
}

// blockKey addresses one cache page: a caller-chosen object key plus the
// block index within the object.
type blockKey struct {
	key string
	idx int64
}

type block struct {
	bk   blockKey
	data []byte
}

// flight is one in-progress block fetch; concurrent readers of the same
// block wait on done instead of issuing duplicate fetches.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// Cache is a block-aligned LRU page cache with single-flight miss
// coalescing. It is safe for concurrent use.
type Cache struct {
	cap int64
	bs  int64

	mu       sync.Mutex
	lru      *list.List // of *block; front = most recently used
	blocks   map[blockKey]*list.Element
	used     int64
	inflight map[blockKey]*flight

	// joins counts reads that waited on another reader's in-flight fetch
	// of the same block instead of issuing their own.
	joins atomic.Int64
}

// New creates a Cache. Capacity must be positive; BlockSize defaults to
// 64 KiB.
func New(cfg Config) *Cache {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = defaultBlockSize
	}
	return &Cache{
		cap:      cfg.Capacity,
		bs:       cfg.BlockSize,
		lru:      list.New(),
		blocks:   make(map[blockKey]*list.Element),
		inflight: make(map[blockKey]*flight),
	}
}

// ReadThrough fills p with bytes [off, off+len(p)) of the object named key,
// serving resident blocks from memory and fetching missing ones with fetch.
// size is the object size when known (the caller must then keep the request
// within it) or -1 when unknown, in which case a short block marks end of
// object and ReadThrough returns the bytes available.
func (c *Cache) ReadThrough(ctx context.Context, key string, size int64, p []byte, off int64, fetch Fetch) (int, error) {
	n := 0
	for idx := off / c.bs; n < len(p); idx++ {
		blockLen := c.bs
		if start := idx * c.bs; size >= 0 && start+blockLen > size {
			blockLen = size - start
		}
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
	return n, nil
}

// getBlock returns the payload of block idx of key: from memory, by
// joining an in-flight fetch, or by fetching [idx*bs, idx*bs+blockLen)
// itself.
func (c *Cache) getBlock(ctx context.Context, key string, idx, blockLen int64, fetch Fetch) ([]byte, error) {
	bk := blockKey{key, idx}
	for {
		c.mu.Lock()
		if el, ok := c.blocks[bk]; ok {
			c.lru.MoveToFront(el)
			data := el.Value.(*block).data
			c.mu.Unlock()
			return data, nil
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
			// cancelled failed for a reason that is not ours while our
			// context is alive: go around and fetch the block ourselves.
			cancelled := errors.Is(fl.err, context.Canceled) || errors.Is(fl.err, context.DeadlineExceeded)
			if cancelled && ctx.Err() == nil {
				continue
			}
			return fl.data, fl.err
		}
		fl := &flight{done: make(chan struct{})}
		c.inflight[bk] = fl
		c.mu.Unlock()

		data, err := fetch(ctx, idx*c.bs, blockLen)
		if err == nil && int64(len(data)) > blockLen {
			data = data[:blockLen]
		}
		fl.data, fl.err = data, err

		c.mu.Lock()
		delete(c.inflight, bk)
		if err == nil && len(data) > 0 {
			c.insertLocked(bk, data)
		}
		c.mu.Unlock()
		close(fl.done)
		return data, err
	}
}

// insertLocked adds a block and evicts from the LRU tail to stay within
// capacity. Caller holds mu.
func (c *Cache) insertLocked(bk blockKey, data []byte) {
	c.blocks[bk] = c.lru.PushFront(&block{bk: bk, data: data})
	c.used += int64(len(data))
	for c.used > c.cap && c.lru.Len() > 0 {
		b := c.lru.Remove(c.lru.Back()).(*block)
		delete(c.blocks, b.bk)
		c.used -= int64(len(b.data))
	}
}
