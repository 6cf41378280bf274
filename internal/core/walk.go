package core

import (
	"context"
	"errors"
	"sync"
)

// SkipDir can be returned from a WalkFunc to skip descending into the
// current collection.
var SkipDir = errors.New("davix: skip this directory")

// WalkFunc is invoked once per namespace entry during Walk.
type WalkFunc func(info Info) error

// defaultWalkParallelism is the fan-out used when Options.WalkParallelism
// is zero and the pool imposes no per-host cap.
const defaultWalkParallelism = 8

// walkSpeculate scales the speculation frontier: a walk keeps at most
// parallelism*walkSpeculate directories listed-but-unconsumed ahead of the
// emitter, so memory and goroutine count stay bounded on arbitrarily large
// namespaces while the PROPFIND pipeline never starves.
const walkSpeculate = 8

// walkParallelism resolves the PROPFIND fan-out for Walk. An explicit
// Options.WalkParallelism wins; the default is defaultWalkParallelism
// capped by the pool's MaxPerHost, so a walk never starves other traffic
// of pool slots. 1 restores the serial depth-first recursion.
func (c *Client) walkParallelism() int {
	par := c.opts.WalkParallelism
	if par <= 0 {
		par = defaultWalkParallelism
		if m := c.opts.MaxPerHost; m > 0 && par > m {
			par = m
		}
	}
	return par
}

// Walk traverses the remote namespace rooted at host/path depth-first in
// lexical order (the davix-ls -r behaviour), calling fn for every entry
// including the root. Collections are enumerated with PROPFIND depth 1;
// fn may return SkipDir to prune a subtree or any other error to abort.
//
// With WalkParallelism > 1 (the default) the PROPFINDs for discovered
// collections are issued concurrently across pooled connections, while a
// merge stage still delivers entries to fn in exactly the serial order:
// fn is never called concurrently and the emission sequence is
// byte-identical to a serial walk. Listings are speculative — a subtree
// later pruned with SkipDir may already have issued PROPFINDs; pruning
// cancels that subtree's remaining in-flight work, and an error from fn
// (or ctx) cancels the whole fleet. Speculation is bounded: no matter how
// large the namespace, only a fixed window of directories is held listed
// ahead of the callback.
func (c *Client) Walk(ctx context.Context, host, path string, fn WalkFunc) error {
	inf, err := c.Stat(ctx, host, path)
	if err != nil {
		return err
	}
	par := c.walkParallelism()
	if par <= 1 || !inf.Dir {
		return c.walkSerial(ctx, host, inf, fn)
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w := &walker{
		c:       c,
		host:    host,
		fn:      fn,
		sem:     make(chan struct{}, par),
		tickets: make(chan struct{}, par*walkSpeculate),
	}
	root := newWalkNode(inf, wctx, cancel)
	go w.expand(root)
	return w.emit(ctx, root)
}

// walkSerial is the seed's depth-first recursion, used for WalkParallelism=1
// (the meta benchmark's serial baseline) and for single-file roots.
func (c *Client) walkSerial(ctx context.Context, host string, inf Info, fn WalkFunc) error {
	if err := fn(inf); err != nil {
		if err == SkipDir {
			return nil
		}
		return err
	}
	if !inf.Dir {
		return nil
	}
	entries, err := c.List(ctx, host, inf.Path)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err := c.walkSerial(ctx, host, e, fn); err != nil {
			return err
		}
	}
	return nil
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

	// entries is the collection's listing in lexical (server) order.
	entries []Info
	// children holds one node per entry, nil for non-collections;
	// indexes parallel entries.
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

// walker drives one parallel Walk: expand goroutines fan PROPFINDs out
// across the pool (at most cap(sem) in flight, at most cap(tickets)
// directories speculated ahead of the emitter) while emit merges results
// back into deterministic depth-first order.
type walker struct {
	c    *Client
	host string
	fn   WalkFunc
	// sem bounds concurrent PROPFINDs.
	sem chan struct{}
	// tickets bounds listed-but-unconsumed directories (the speculation
	// frontier). The emitter's urgency signal bypasses it.
	tickets chan struct{}
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

// list runs the PROPFIND for n and publishes entries/children.
func (w *walker) list(n *walkNode) {
	defer close(n.done)
	select {
	case w.sem <- struct{}{}:
	case <-n.ctx.Done():
		n.err = n.ctx.Err()
		return
	}
	entries, err := w.c.List(n.ctx, w.host, n.info.Path)
	<-w.sem
	if err != nil {
		n.err = err
		return
	}
	n.entries = entries
	n.children = make([]*walkNode, len(entries))
	for i, e := range entries {
		if !e.Dir {
			continue
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
	// Rush the first parallelism child collections: they are the listings
	// this walk needs soonest, and prioritizing them keeps the depth-first
	// critical path pipelined even when every speculation ticket is held
	// by a later subtree.
	rushed := 0
	for _, child := range n.children {
		if child == nil {
			continue
		}
		child.rush()
		if rushed++; rushed == cap(w.sem) {
			break
		}
	}
	for i, e := range n.entries {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		child := n.children[i]
		if child == nil {
			// Plain file: emit inline. SkipDir on a non-collection is a
			// no-op beyond not descending, as in the serial walk.
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
	return nil
}
