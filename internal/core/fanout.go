package core

import (
	"context"
	"sync"
	"sync/atomic"
)

// fanOut runs fn once for every index in [0, n), across at most par workers
// that pull the indices in order. A vectored read's multi-range batches
// and a multi-stream download's or upload's chunks each run as one fanOut.
//
// The first error fn returns is the one fanOut returns, and it cancels the
// rest through a derived context: calls in flight abort and indices not yet
// pulled are abandoned, so replica failover sees the genuine failure rather
// than a sibling's context.Canceled. A parent cancel that no call recorded
// as an error still returns ctx.Err(), never nil: the work is incomplete.
// With par <= 1 the calls run in order on the caller's goroutine and ctx.
func fanOut(ctx context.Context, n, par int, fn func(ctx context.Context, i int) error) error {
	if par = min(par, n); par <= 1 {
		for i := range n {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		once     sync.Once
		firstErr error
		next     atomic.Int64
	)
	wg.Add(par)
	for range par {
		go func() {
			defer wg.Done()
			for dctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(dctx, i); err != nil {
					once.Do(func() { firstErr = err; cancel() })
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr == nil {
		return ctx.Err()
	}
	return firstErr
}

// width is the one width rule of the client's fan-outs, for work that
// splits into n pieces drawing connections from hosts distinct hosts: def,
// capped by the connections the pool may hold to those hosts (hosts ×
// MaxPerHost), so a fan-out starts no worker that could only queue for a
// connection. With MaxPerHost 0 the pool grows with the level of
// concurrency (paper §2.2) and def alone caps. No more than n run.
func (c *Client) width(def, hosts, n int) int {
	w := min(n, def)
	// m >= w caps nothing, and testing it first keeps hosts*m from
	// overflowing.
	if m := c.opts.MaxPerHost; m > 0 && m < w {
		w = min(w, hosts*m)
	}
	return w
}
