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
	window      uint64
	trainEvents uint64
	depth       int

	// branches is the learned set, kept sorted as it grows; after training
	// a branch's position in it is its position in tc.branches.
	branches []int
	trained  bool
	tc       *TreeCache

	retrains int
}

// NewTrainingCache creates a TrainingCache over r. trainEvents bounds the
// learning phase (0 selects 100, ROOT's entry-range default spirit);
// windowEvents is the post-training TreeCache window. The prefetch depth
// is the TreeCache automatic default.
func NewTrainingCache(r *Reader, trainEvents, windowEvents uint64) *TrainingCache {
	return NewTrainingCacheDepth(r, trainEvents, windowEvents, -1)
}

// NewTrainingCacheDepth is NewTrainingCache with an explicit prefetch
// depth for the post-training window pipeline (see NewTreeCacheDepth).
func NewTrainingCacheDepth(r *Reader, trainEvents, windowEvents uint64, depth int) *TrainingCache {
	if trainEvents == 0 {
		trainEvents = 100
	}
	return &TrainingCache{
		reader:      r,
		window:      windowEvents,
		trainEvents: trainEvents,
		depth:       depth,
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
		// Late branch discovery: the set has widened, rebuild.
		t.retrains++
		t.rebuild()
	}
	return t.tc.Branch(ev, pos)
}

func (t *TrainingCache) finishTraining() {
	t.trained = true
	t.rebuild()
}

// rebuild replaces the window cache with one over the learned set. The
// decoded baskets stay: the new cache's first window keeps those it needs —
// the ones training or the previous set just decoded — and evicts the rest.
func (t *TrainingCache) rebuild() {
	if t.tc != nil {
		t.tc.Close() // cancels fills in flight for the stale branch set
	}
	t.tc = NewTreeCacheDepth(t.reader, t.window, t.UsedBranches(), t.depth)
}

// Fills reports the vectored fill count of the post-training cache.
func (t *TrainingCache) Fills() int64 {
	if t.tc == nil {
		return 0
	}
	return t.tc.Fills()
}

// PrefetchStats reports the post-training pipeline's speculation
// accounting (see TreeCache.PrefetchStats).
func (t *TrainingCache) PrefetchStats() (issued, wasted, cancelled int64) {
	if t.tc == nil {
		return 0, 0, 0
	}
	return t.tc.PrefetchStats()
}

// Close releases the underlying TreeCache.
func (t *TrainingCache) Close() {
	if t.tc != nil {
		t.tc.Close()
	}
}
