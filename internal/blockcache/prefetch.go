package blockcache

import (
	"context"
	"sort"
)

// Span is one byte range of the object backing a cache key.
type Span struct {
	Off, Len int64
}

// FetchVec retrieves several spans of the object backing key in one
// vectored request (dsts[i] sized to spans[i].Len). The cache uses it for
// coalesced multi-range prefetches — one pooled request instead of one GET
// per span.
type FetchVec func(ctx context.Context, key string, spans []Span, dsts [][]byte) error

// Hint feeds byte spans the caller knows it will read soon (e.g. the
// basket layout of the next analysis windows) into the read-ahead planner,
// speculatively fetching whatever it approves. size is the object size
// when known, else -1; fetch serves the spans no FetchVec request carries
// (see prefetchRuns). A no-op when the cache has no read-ahead.
func (c *Cache) Hint(key string, size int64, spans []Span, fetch Fetch) {
	if c.planner == nil || len(spans) == 0 {
		return
	}
	runs := make([]BlockRange, 0, len(spans))
	for _, sp := range spans {
		if sp.Len <= 0 {
			continue
		}
		first := sp.Off / c.bs
		last := (sp.Off + sp.Len - 1) / c.bs
		runs = append(runs, BlockRange{Start: first, Count: last - first + 1})
	}
	c.prefetchRuns(key, size, c.planner.Hint(key, normalizeRuns(runs)), fetch)
}

// normalizeRuns sorts runs and merges overlapping or adjacent ones.
func normalizeRuns(runs []BlockRange) []BlockRange {
	if len(runs) < 2 {
		return runs
	}
	sort.Slice(runs, func(a, b int) bool { return runs[a].Start < runs[b].Start })
	out := runs[:1]
	for _, ru := range runs[1:] {
		prev := &out[len(out)-1]
		if ru.Start <= prev.Start+prev.Count {
			if end := ru.Start + ru.Count; end > prev.Start+prev.Count {
				prev.Count = end - prev.Start
			}
			continue
		}
		out = append(out, ru)
	}
	return out
}

// job is one span of a speculative request and the flights reserved for
// the consecutive blocks it covers.
type job struct {
	span   Span
	blocks []blockKey
	fls    []*flight
}

// prefetchRuns speculatively fetches the planner's runs in the background.
// With a known size the runs are clipped to it and, given a FetchVec, go
// out as one vectored request. With an unknown size each span is one
// Fetch, so a short or failed answer marks the end of the object at the
// exact block instead of failing a whole batch.
func (c *Cache) prefetchRuns(key string, size int64, runs []BlockRange, fetch Fetch) {
	jobs := c.reserve(key, size, c.clipRuns(size, runs))
	if len(jobs) == 0 {
		return
	}
	if c.fetchVec != nil && size >= 0 {
		c.speculate(key, size, jobs, func() ([][]byte, error) {
			spans := make([]Span, len(jobs))
			dsts := make([][]byte, len(jobs))
			for i, j := range jobs {
				spans[i] = j.span
				dsts[i] = make([]byte, j.span.Len)
			}
			return dsts, c.fetchVec(c.bg, key, spans, dsts)
		})
		return
	}
	for _, j := range jobs {
		c.speculate(key, size, []job{j}, func() ([][]byte, error) {
			data, err := fetch(c.bg, j.span.Off, j.span.Len)
			return [][]byte{data}, err
		})
	}
}

// clipRuns drops or shortens runs extending past the object size.
func (c *Cache) clipRuns(size int64, runs []BlockRange) []BlockRange {
	if size < 0 {
		return runs
	}
	blocks := (size + c.bs - 1) / c.bs
	out := runs[:0]
	for _, ru := range runs {
		if ru.Start >= blocks {
			continue
		}
		if ru.Start+ru.Count > blocks {
			ru.Count = blocks - ru.Start
		}
		if ru.Count > 0 {
			out = append(out, ru)
		}
	}
	return out
}

// blockLen is the byte length of block idx given the object size.
func (c *Cache) blockLen(size, idx int64) int64 {
	blockLen := c.bs
	if size >= 0 {
		if off := idx * c.bs; off+blockLen > size {
			blockLen = size - off
		}
	}
	return blockLen
}

// reserve claims a speculative flight for every block of runs that is
// neither resident nor in flight, so demand readers join instead of
// duplicating the fetch, and lays the claimed blocks out as spans, adjacent
// blocks sharing one. The in-flight budget trims the batch from the tail.
func (c *Cache) reserve(key string, size int64, runs []BlockRange) []job {
	var jobs []job
	var total int64
	c.mu.Lock()
	defer c.mu.Unlock()
reserve:
	for _, ru := range runs {
		for idx := ru.Start; idx < ru.Start+ru.Count; idx++ {
			bk := blockKey{key, idx}
			_, resident := c.blocks[bk]
			_, busy := c.inflight[bk]
			if resident || busy {
				continue
			}
			blockLen := c.blockLen(size, idx)
			if c.budget > 0 && c.pfInFlight+total+blockLen > c.budget {
				// Budget full: issue what fits, drop the rest.
				c.pfCancelled.Add(1)
				break reserve
			}
			fl := &flight{done: make(chan struct{}), gen: c.gen, spec: true}
			c.inflight[bk] = fl
			total += blockLen
			if n := len(jobs); n == 0 || jobs[n-1].span.Off+jobs[n-1].span.Len != idx*c.bs {
				jobs = append(jobs, job{span: Span{Off: idx * c.bs}})
			}
			j := &jobs[len(jobs)-1]
			j.span.Len += blockLen
			j.blocks = append(j.blocks, bk)
			j.fls = append(j.fls, fl)
		}
	}
	c.pfInFlight += total
	return jobs
}

// speculate puts one request for jobs on the wire in the background; do
// performs it, returning each job's bytes. When it answers, the blocks are
// installed, the flights released and the budget returned.
func (c *Cache) speculate(key string, size int64, jobs []job, do func() ([][]byte, error)) {
	var total int64
	for _, j := range jobs {
		total += j.span.Len
	}
	c.pfIssuedSpans.Add(int64(len(jobs)))
	c.pfIssuedBytes.Add(total)
	if c.onPfIssued != nil {
		c.onPfIssued(key, len(jobs), total)
	}
	go func() {
		datas, err := do()
		c.mu.Lock()
		for i, j := range jobs {
			c.settleLocked(key, size, j, datas[i], err)
		}
		c.pfInFlight -= total
		c.mu.Unlock()
		for _, j := range jobs {
			for _, fl := range j.fls {
				close(fl.done)
			}
		}
		if c.onPfSettled != nil {
			c.onPfSettled(key, total, err)
		}
	}()
}

// settleLocked hands one job's answer to its flights and installs the
// blocks it carries. data holds the span's bytes from its start: an answer
// shorter than the span means the object ends inside it, so the blocks
// past the data settle empty and read-ahead stops at the first of them.
// Caller holds mu.
func (c *Cache) settleLocked(key string, size int64, j job, data []byte, err error) {
	if int64(len(data)) > j.span.Len {
		data = data[:j.span.Len]
	}
	var at int64
	for bi, bk := range j.blocks {
		fl := j.fls[bi]
		delete(c.inflight, bk)
		fl.err = err
		if err == nil {
			end := min(at+c.bs, int64(len(data)))
			fl.data = data[min(at, end):end]
		}
		at += c.bs
		if len(fl.data) > 0 && c.gen == fl.gen {
			c.insertLocked(bk, fl.data, true)
			c.prefetched.Add(1)
		}
	}
	if c.gen != j.fls[0].gen {
		return // invalidated meanwhile: what it teaches may be stale
	}
	first := j.span.Off / c.bs
	switch {
	case err == nil && int64(len(data)) < j.span.Len:
		c.learnEOF(key, first+(int64(len(data))+c.bs-1)/c.bs)
	case err != nil && size < 0:
		// With the size unknown, a failed span usually starts past the end
		// of the object. A transient error over-trims at worst: demand
		// reads are unaffected and Invalidate resets the bound.
		c.learnEOF(key, first)
	}
}
