package core

import (
	"context"
	"errors"
	"math"
	"sync"
)

// SkipDir can be returned from a WalkFunc to skip descending into the
// current collection.
var SkipDir = errors.New("davix: skip this directory")

// WalkFunc is invoked once per namespace entry during Walk.
type WalkFunc func(info Info) error

// walkWidth is how many PROPFINDs a walk keeps in flight when the pool
// imposes no per-host cap; MaxPerHost caps it.
const walkWidth = 8

// walkSpeculate scales the speculation frontier: a walk keeps at most
// parallelism*walkSpeculate directories listed-but-unconsumed ahead of the
// emitter, so memory and goroutine count stay bounded on arbitrarily large
// namespaces while the PROPFIND pipeline never starves.
const walkSpeculate = 8

// Walk traverses the remote namespace rooted at host/path depth-first in
// lexical order (the davix-ls -r behaviour), calling fn for every entry
// including the root. Collections are enumerated with PROPFIND depth 1;
// fn may return SkipDir to prune a subtree or any other error to abort.
// The root is listed before fn sees it, at every width: its entry is the
// listing's response for the root itself, so a file root, like every
// other walked entry, carries PROPFIND properties and no checksum.
//
// At a width above 1 (walkWidth, capped by MaxPerHost) the PROPFINDs for discovered
// collections are issued concurrently across pooled connections, while a
// merge stage still delivers entries to fn in exactly the serial order:
// fn is never called concurrently and the emission sequence is
// byte-identical to a serial walk. Listings are speculative — a subtree
// later pruned with SkipDir may already have issued PROPFINDs; pruning
// cancels that subtree's remaining in-flight work, and an error from fn
// (or ctx) cancels the whole fleet. Speculation is bounded: no matter how
// large the namespace, only a fixed window of directories is held listed
// ahead of the callback. At MaxPerHost 1 the walk speculates nothing:
// below the root it lists a collection only once fn has accepted it, one
// PROPFIND at a time, so a pruned subtree or an aborted walk costs no
// further request.
func (c *Client) Walk(ctx context.Context, host, path string, fn WalkFunc) error {
	par := c.width(walkWidth, 1, math.MaxInt)
	ahead := par
	if par == 1 {
		ahead = 0
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w := &walker{
		c:       c,
		host:    host,
		fn:      fn,
		ahead:   ahead,
		sem:     make(chan struct{}, par),
		tickets: make(chan struct{}, ahead*walkSpeculate),
	}
	// The root is listed on host like every collection, by its own
	// expand, and its entry is what that listing says of it.
	w.root = newWalkNode(Info{Path: path, Dir: true}, wctx, cancel)
	w.root.rush()
	go w.expand(w.root)
	<-w.root.done
	if w.root.err != nil {
		return w.root.err
	}
	inf, listing := w.rootSelf, *w.root.listing
	if inf.Path == "" {
		// No href names the root: a lone file's response is the root
		// itself, no response at all is no root, and anything else lists
		// a collection.
		switch {
		case len(listing) == 0:
			putListing(w.root.listing)
			return errNoResponse(path)
		case len(listing) == 1 && !listing[0].Dir:
			inf = listing[0]
		default:
			inf = w.root.info
		}
	}
	if !inf.Dir {
		putListing(w.root.listing)
		if err := fn(inf); err != SkipDir {
			return err
		}
		return nil
	}
	w.root.info = inf
	return w.emit(ctx, w.root)
}

// walkNode is one collection in the traversal tree. Its listing is
// produced asynchronously by walker.expand and consumed by walker.emit.
type walkNode struct {
	info Info
	// ctx scopes this node's subtree; cancel stops its in-flight listing
	// and every descendant's.
	ctx    context.Context
	cancel context.CancelFunc

	// done is closed once entries/children/err are final.
	done chan struct{}
	// urgent is closed (via rush) when the emitter is blocked on — or
	// about to need — this node, letting it bypass the speculation-ticket
	// queue so the walk can never stall behind its own throttle.
	urgent     chan struct{}
	urgentOnce sync.Once
	// consumed is closed by the emitter once it has finished the node's
	// subtree; the node's speculation ticket is released then.
	consumed chan struct{}
	// ticketed records whether this node holds a speculation ticket
	// (written by the parent's spawner before the node's goroutine
	// starts, read only by that goroutine).
	ticketed bool

	// listing is the collection's pooled listing in lexical (server)
	// order; emit hands it back once every entry has been emitted.
	listing *[]Info
	// children holds one node per entry, nil for non-collections;
	// indexes parallel the listing. It stays nil when the listing holds
	// no collection, and emit reads a nil slice as all files.
	children []*walkNode
	// err is the listing failure, surfaced only if the merge stage
	// actually descends into this node (a pruned subtree's speculative
	// errors are discarded, matching serial semantics).
	err error
}

func newWalkNode(inf Info, ctx context.Context, cancel context.CancelFunc) *walkNode {
	return &walkNode{
		info:     inf,
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		urgent:   make(chan struct{}),
		consumed: make(chan struct{}),
	}
}

// rush marks the node as needed by the emitter soon: its listing may start
// without a speculation ticket. Idempotent.
func (n *walkNode) rush() {
	n.urgentOnce.Do(func() { close(n.urgent) })
}

// walker drives one Walk: expand goroutines fan PROPFINDs out across the
// pool (at most cap(sem) in flight, at most cap(tickets) directories
// speculated ahead of the emitter) while emit merges results back into
// deterministic depth-first order.
type walker struct {
	c    *Client
	host string
	fn   WalkFunc
	// ahead is how many child collections the emitter rushes as soon as
	// their parent is listed: the width, or 0 for a walk that speculates
	// nothing (and then holds no tickets either).
	ahead int
	// sem bounds concurrent PROPFINDs.
	sem chan struct{}
	// tickets bounds listed-but-unconsumed directories (the speculation
	// frontier). The emitter's urgency signal bypasses it.
	tickets chan struct{}
	// root is the walk's root node, and rootSelf the response its listing
	// gave for the root itself (list's self), zero when none named it.
	root     *walkNode
	rootSelf Info
}

// expand produces n's listing, schedules the listing of its child
// collections in emission order, and finally parks until the emitter has
// consumed the node before returning its speculation ticket.
func (w *walker) expand(n *walkNode) {
	w.list(n)
	w.spawnChildren(n)
	if n.ticketed {
		select {
		case <-n.consumed:
		case <-n.ctx.Done():
		}
		<-w.tickets
	}
}

// list runs the PROPFIND for n and publishes entries/children. A node
// without a ticket lists only once the emitter needs it.
func (w *walker) list(n *walkNode) {
	defer close(n.done)
	if !n.ticketed {
		select {
		case <-n.urgent:
		case <-n.ctx.Done():
			n.err = n.ctx.Err()
			return
		}
	}
	select {
	case w.sem <- struct{}{}:
	case <-n.ctx.Done():
		n.err = n.ctx.Err()
		return
	}
	listing, self, err := w.c.list(n.ctx, w.host, n.info.Path)
	<-w.sem
	if err != nil {
		n.err = err
		return
	}
	if n == w.root {
		w.rootSelf = self
	}
	n.listing = listing
	for i, e := range *listing {
		if !e.Dir {
			continue
		}
		if n.children == nil {
			n.children = make([]*walkNode, len(*listing))
		}
		cctx, cancel := context.WithCancel(n.ctx)
		n.children[i] = newWalkNode(e, cctx, cancel)
	}
}

// spawnChildren starts each child collection's expand, in emission order,
// gated on a speculation ticket — or immediately when the emitter reports
// it is blocked on that child. The in-order gating is what makes the
// urgency bypass deadlock-free: the child the emitter needs next is always
// the first one this loop is waiting to start.
func (w *walker) spawnChildren(n *walkNode) {
	for _, child := range n.children {
		if child == nil {
			continue
		}
		select {
		case w.tickets <- struct{}{}:
			child.ticketed = true
		case <-child.urgent:
		case <-child.ctx.Done():
			// Pruned or cancelled before it ever started; mark it so a
			// racing emitter sees the cancellation, not an empty listing.
			child.err = child.ctx.Err()
			close(child.done)
			continue
		}
		go w.expand(child)
	}
}

// emit delivers n's subtree to fn in depth-first lexical order. It is the
// single sequential consumer: fn never runs concurrently with itself.
func (w *walker) emit(ctx context.Context, n *walkNode) error {
	// Completed subtrees release their context (and, via consumed, their
	// speculation ticket) immediately rather than holding them until the
	// walk finishes.
	defer n.cancel()
	defer close(n.consumed)
	if err := w.fn(n.info); err != nil {
		if err == SkipDir {
			// Prune: stop the subtree's in-flight listings right away.
			n.cancel()
			return nil
		}
		return err
	}
	n.rush()
	<-n.done
	if n.err != nil {
		return n.err
	}
	// Rush the first w.ahead child collections: they are the listings
	// this walk needs soonest, and prioritizing them keeps the depth-first
	// critical path pipelined even when every speculation ticket is held
	// by a later subtree.
	rushed := 0
	for _, child := range n.children {
		if rushed == w.ahead {
			break
		}
		if child != nil {
			child.rush()
			rushed++
		}
	}
	for i, e := range *n.listing {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var child *walkNode
		if n.children != nil {
			child = n.children[i]
		}
		if child == nil {
			// Plain file: emit inline. SkipDir on a non-collection is a
			// no-op beyond not descending.
			if err := w.fn(e); err != nil && err != SkipDir {
				return err
			}
			continue
		}
		if err := w.emit(ctx, child); err != nil {
			return err
		}
		select {
		case <-child.done:
			n.children[i] = nil // allow the finished subtree to be collected
		default:
			// Pruned before its listing settled: spawnChildren may not have
			// read this slot yet, and the node holds no entries to free.
		}
	}
	// Every entry is out, and children copied their Info: nothing reads
	// the listing again. An early return leaves it to the collector.
	putListing(n.listing)
	return nil
}
