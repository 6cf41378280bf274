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

// parallelism is the one width rule of the client's fan-outs, for work that
// splits into n pieces: an explicit setting wins; otherwise def, capped by
// the pool's MaxPerHost so a fan-out never starves other traffic of pool
// slots. Either way no more than n run.
func (c *Client) parallelism(set, def, n int) int {
	par := set
	if par <= 0 {
		par = def
		if m := c.opts.MaxPerHost; m > 0 && par > m {
			par = m
		}
	}
	return min(par, n)
}
