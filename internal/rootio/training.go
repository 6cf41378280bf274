package rootio

import (
	"fmt"
	"sort"
)

// TrainingCache reproduces the ROOT TTreeCache learning phase: for the
// first trainEvents events, per-branch reads are served on demand while
// the cache records which branches the analysis actually touches. After
// training it switches to a TreeCache restricted to the observed branch
// set, so the vectored fills transfer only the columns the analysis needs
// — typically a small fraction of the file.
//
// A pipelined cache (depth D > 0 over an asynchronous Source) starts its
// window pipeline during training. Training's demand reads are serial
// round trips on one connection; while they run, each learned branch's
// first post-training baskets are already on their way on another: those
// of windows ws0..ws0+D, where ws0 holds the last training event, that
// begin at or after event trainEvents, so no training read needs them.
// The first branch an event learns gets its fill at once, before its
// demand read; the event's later branches share one fill, sent at the
// next event's first call. The fills are the window cache's own pending
// fills, so the pipeline consumes them instead of fetching those baskets
// again, and Close or a jump books them as waste like any other
// speculation. The schedule depends only on the caller's call sequence.
// Depth 0 issues no lookahead.
//
// A branch first touched after training triggers a transparent retrain
// (the new branch joins the set and the windowed cache is rebuilt), so
// correctness never depends on the training window being representative.
// The rebuild hands the widened branch set to the prefetch pipeline and
// cancels any fills in flight for the stale set.
//
// Payloads follow the TreeCache lifetime, those read during training too:
// each stays valid until the cache enters a window that no longer needs
// its basket.
type TrainingCache struct {
	reader      *Reader
	trainEvents uint64

	// branches is the learned set, kept sorted as it grows; after training
	// a branch's position in it is its position in tc.branches.
	branches []int
	trained  bool
	// tc is the window cache. Until training ends it reads no branch and
	// holds only the lookahead fills.
	tc *TreeCache

	// ev is the event of the last training call, sent whether a lookahead
	// fill went out during it, and unsent the branches learned since the
	// last one.
	ev     uint64
	sent   bool
	unsent []int

	retrains int
}

// NewTrainingCacheDepth creates a TrainingCache over r. trainEvents bounds
// the learning phase (0 selects 100, ROOT's entry-range default spirit);
// windowEvents and depth configure the post-training window pipeline (see
// NewTreeCacheDepth; a negative depth is its automatic default).
func NewTrainingCacheDepth(r *Reader, trainEvents, windowEvents uint64, depth int) *TrainingCache {
	if trainEvents == 0 {
		trainEvents = 100
	}
	return &TrainingCache{
		reader:      r,
		trainEvents: trainEvents,
		tc:          NewTreeCacheDepth(r, windowEvents, []int{}, depth),
	}
}

// UsedBranches returns the branch positions learned so far, sorted.
func (t *TrainingCache) UsedBranches() []int {
	return append([]int(nil), t.branches...)
}

// learn returns bi's position in the sorted learned set, inserting it
// when it is new.
func (t *TrainingCache) learn(bi int) (pos int, isNew bool) {
	pos = sort.SearchInts(t.branches, bi)
	if pos < len(t.branches) && t.branches[pos] == bi {
		return pos, false
	}
	t.branches = append(t.branches, 0)
	copy(t.branches[pos+1:], t.branches[pos:])
	t.branches[pos] = bi
	return pos, true
}

// Trained reports whether the learning phase has finished.
func (t *TrainingCache) Trained() bool { return t.trained }

// Retrains counts how many times a post-training branch miss forced a
// cache rebuild.
func (t *TrainingCache) Retrains() int { return t.retrains }

// Branch returns branch bi of event ev. During training it reads on
// demand and records usage; afterwards it serves from the windowed
// vectored cache.
func (t *TrainingCache) Branch(ev uint64, bi int) ([]byte, error) {
	if bi < 0 || bi >= len(t.reader.idx.Branches) {
		return nil, fmt.Errorf("rootio: branch %d out of range", bi)
	}
	pos, isNew := t.learn(bi)
	if !t.trained {
		// The lookahead goes out with an event's first new branch, and
		// at the first call of the event after one that met several.
		if isNew {
			t.unsent = append(t.unsent, bi)
		}
		if ev != t.ev || isNew && !t.sent {
			t.ev, t.sent = ev, isNew
			t.lookahead()
		}
		// Batch the demand reads: one vectored fetch brings this event's
		// basket for every branch learned so far (already-decoded baskets
		// are skipped by loadBaskets), instead of a one-branch round trip
		// per Branch call — O(events) fetches during training instead of
		// O(events × branches).
		keys := make([]basketKey, 0, len(t.branches))
		for _, ubi := range t.branches {
			bk, err := t.reader.basketFor(ubi, ev)
			if err != nil {
				return nil, err
			}
			keys = append(keys, basketKey{branch: ubi, basket: bk})
		}
		if err := t.reader.loadBaskets(keys); err != nil {
			return nil, err
		}
		p, err := t.reader.payload(ev, bi)
		if err != nil {
			return nil, err
		}
		if ev+1 >= t.trainEvents {
			t.finishTraining()
		}
		return p, nil
	}
	if isNew {
		// Late branch discovery: the set has widened. The fills in flight
		// are for the stale set; the next window entered starts afresh.
		t.retrains++
		t.tc.Close()
		t.tc.curStart = ^uint64(0)
		t.tc.branches = t.UsedBranches()
	}
	return t.tc.Branch(ev, pos)
}

// finishTraining hands the learned set to the window cache, whose first
// window keeps the baskets training decoded and adopts the lookahead. The
// call that ends training is its event's first, so nothing is unsent.
func (t *TrainingCache) finishTraining() {
	t.trained = true
	t.tc.branches = t.UsedBranches()
}

// lookahead sends one background fill for the branches learned since the
// last one: their baskets in windows ws0..ws0+depth that begin at or after
// event trainEvents, ws0 the window of the last training event, which the
// pipeline enters first.
func (t *TrainingCache) lookahead() {
	tc := t.tc
	if len(t.unsent) > 0 && tc.depth > 0 && tc.reader.src.ReadVecAsyncCtx != nil {
		last := t.trainEvents - 1
		var run []uint64
		for ws := last - last%tc.window; ws < tc.reader.idx.Events && len(run) <= tc.depth; ws += tc.window {
			run = append(run, ws)
		}
		tc.startGroup(run, false, t.unsent, t.trainEvents)
	}
	t.unsent = t.unsent[:0]
}

// Fills reports the vectored fill count of the window cache, lookahead
// fills included.
func (t *TrainingCache) Fills() int64 { return t.tc.Fills() }

// PrefetchStats reports the window cache's speculation accounting, the
// lookahead included (see TreeCache.PrefetchStats).
func (t *TrainingCache) PrefetchStats() (issued, wasted, cancelled int64) {
	return t.tc.PrefetchStats()
}

// Close cancels the fills in flight, lookahead included.
func (t *TrainingCache) Close() { t.tc.Close() }
