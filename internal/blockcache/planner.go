package blockcache

import "sync"

// BlockRange is a run of consecutive block indices the planner proposes to
// prefetch.
type BlockRange struct {
	// Start is the first block index of the run.
	Start int64
	// Count is the number of consecutive blocks.
	Count int64
}

// strideState is one key's learned access history for the stride planner.
type strideState struct {
	// first and span describe the previous demand read (first block index
	// and block count); span == 0 means no read observed yet.
	first, span int64
	// stride is the last observed first-to-first block distance.
	stride int64
	// streak counts consecutive reads with the same stride.
	streak int
	// limit, when >= 0, is the first block index known to lie past the end
	// of the object (learned from a short or failed speculative fetch);
	// plans and hints never go there.
	limit int64
}

// StridePlanner is the cache's read-ahead planner. It learns the stride of
// the demand-read stream — a forward scan, or the sparse, branch-skipping
// pattern of a ROOT analysis touching a subset of columns — and keeps the
// next predicted reads in flight as coalesced multi-block runs. It also
// accepts layout hints (Cache.Hint), clipped against the learned end of
// object, so a reader that knows its future byte ranges can drive exact
// speculation instead of relying on detection. The cache calls LearnEOF
// and Forget while holding its own lock, so the planner never calls back
// into the cache.
type StridePlanner struct {
	lookahead int

	mu   sync.Mutex
	keys map[string]*strideState
}

// NewStridePlanner creates a stride/sparse planner keeping lookahead
// predicted reads in flight (<= 0 selects 2).
func NewStridePlanner(lookahead int) *StridePlanner {
	if lookahead <= 0 {
		lookahead = 2
	}
	return &StridePlanner{lookahead: lookahead, keys: make(map[string]*strideState)}
}

// state returns (creating if needed) key's history, keeping the map
// bounded. Caller holds mu.
func (p *StridePlanner) state(key string) *strideState {
	st := p.keys[key]
	if st == nil {
		if len(p.keys) >= maxPlannerKeys {
			p.keys = make(map[string]*strideState)
		}
		st = &strideState{limit: -1}
		p.keys[key] = st
	}
	return st
}

// Plan observes a demand read covering blocks [first, last] of key and
// returns the block runs worth prefetching now (nil for none): the next
// lookahead reads of the same size at the learned stride. A read
// contiguous with the previous one — it starts where that one ended, or it
// is a first read at block 0 — is a forward scan and arms read-ahead at
// once; any other forward stride must be seen twice in a row.
func (p *StridePlanner) Plan(key string, first, last int64) []BlockRange {
	count := last - first + 1
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.state(key)
	prevFirst, prevSpan := st.first, st.span
	st.first, st.span = first, count
	switch stride := first - prevFirst; {
	case first <= prevFirst+prevSpan && last >= prevFirst+prevSpan:
		st.stride, st.streak = count, 2
	case prevSpan == 0 || stride <= 0:
		// First read elsewhere, backward jump or re-read: start over.
		st.stride, st.streak = 0, 0
		return nil
	case stride == st.stride:
		st.streak++
	default:
		st.stride, st.streak = stride, 1
	}
	if st.streak < 2 {
		return nil
	}
	runs := make([]BlockRange, 0, p.lookahead)
	for k := int64(1); k <= int64(p.lookahead); k++ {
		start := first + k*st.stride
		cnt := count
		if st.limit >= 0 {
			if start >= st.limit {
				break
			}
			if start+cnt > st.limit {
				cnt = st.limit - start
			}
		}
		runs = append(runs, BlockRange{Start: start, Count: cnt})
	}
	return runs
}

// Hint accepts externally-known upcoming runs, clipped to the learned end
// of object, and hands them back for speculative fetching.
func (p *StridePlanner) Hint(key string, runs []BlockRange) []BlockRange {
	p.mu.Lock()
	limit := p.state(key).limit
	p.mu.Unlock()
	if limit < 0 {
		return runs
	}
	out := runs[:0]
	for _, ru := range runs {
		if ru.Start >= limit {
			continue
		}
		if ru.Start+ru.Count > limit {
			ru.Count = limit - ru.Start
		}
		out = append(out, ru)
	}
	return out
}

// LearnEOF records that block idx lies at or past the end of key's
// object; no later plan or hint includes it.
func (p *StridePlanner) LearnEOF(key string, idx int64) {
	p.mu.Lock()
	st := p.state(key)
	if st.limit < 0 || idx < st.limit {
		st.limit = idx
	}
	p.mu.Unlock()
}

// Forget drops key's history (the key was invalidated).
func (p *StridePlanner) Forget(key string) {
	p.mu.Lock()
	delete(p.keys, key)
	p.mu.Unlock()
}
