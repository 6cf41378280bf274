package blockcache

import "sync"

// maxPlannerKeys bounds the planner's per-key access history; when
// exceeded the history is reset (costing at worst one missed read-ahead
// trigger per key, never correctness).
const maxPlannerKeys = 4096

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
}

// StridePlanner learns the stride of a demand-read stream — a forward
// scan, or the sparse, branch-skipping pattern of a ROOT analysis touching
// a subset of columns — and predicts the next reads as multi-block runs.
type StridePlanner struct {
	lookahead int

	mu   sync.Mutex
	keys map[string]*strideState
}

// NewStridePlanner creates a stride/sparse planner predicting lookahead
// reads ahead (<= 0 selects 2).
func NewStridePlanner(lookahead int) *StridePlanner {
	if lookahead <= 0 {
		lookahead = 2
	}
	return &StridePlanner{lookahead: lookahead, keys: make(map[string]*strideState)}
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
	st := p.keys[key]
	if st == nil {
		if len(p.keys) >= maxPlannerKeys {
			p.keys = make(map[string]*strideState)
		}
		st = &strideState{}
		p.keys[key] = st
	}
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
		runs = append(runs, BlockRange{Start: first + k*st.stride, Count: count})
	}
	return runs
}
