package core

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"context"

	"godavix/internal/bufpool"
	"godavix/internal/digest"
)

// Hedged chunk reads: a multi-replica chunk fetch that outlives a latency
// budget gets a duplicate request raced against the next-ranked replica.
// The health scoreboard routes around replicas that fail; hedging covers
// the gap it cannot see — a replica that answers, slowly. The primary leg
// streams straight into the destination; the standby leg streams into a private pooled buffer and is committed
// with a single WriteAt only after the primary leg has fully exited, so a
// cancelled loser can never touch bytes the winner committed.

// hedgeMinSamples is how many chunk reads the live histogram must hold
// before the auto-derived budget engages. Below it the P99 of a handful of
// samples is noise, and a cold client would hedge its very first chunks.
const hedgeMinSamples = 64

// hedgeBudget resolves the latency budget beyond which a chunk read is
// hedged: Options.HedgeDelay when positive, disabled when negative, and in
// auto mode (zero) the live P99 of the chunk-read histogram once it holds
// enough samples.
func (c *Client) hedgeBudget() (time.Duration, bool) {
	d := c.opts.HedgeDelay
	if d < 0 {
		return 0, false
	}
	if d > 0 {
		return d, true
	}
	v, ok := c.metrics.ops.Load(specChunk.op)
	if !ok {
		return 0, false
	}
	counts, total := v.(*opHist).load()
	if total < hedgeMinSamples {
		return 0, false
	}
	return quantile(counts[:], total, 0.99), true
}

// hedgePair picks the two legs of a hedged read of chunk idx: its ring
// slot as the primary and, as the standby, the first replica after it on a
// different host. Same-host "replicas" (alternate paths) share the
// straggler's fate and are never worth racing. A demoted host is neither
// leg: ok is false when the primary is demoted or no healthy standby
// exists, and the chunk goes to the serial ring walk, whose half-open
// probe is the only request a demoted host may get.
func (b *healthBoard) hedgePair(ring []Replica, idx int) (primary, standby Replica, ok bool) {
	primary = ring[idx%len(ring)]
	if !b.healthy(primary.Host) {
		return primary, Replica{}, false
	}
	for i := 1; i < len(ring); i++ {
		rep := ring[(idx+i)%len(ring)]
		if rep.Host != primary.Host && b.healthy(rep.Host) {
			return primary, rep, true
		}
	}
	return primary, Replica{}, false
}

// chunkBuf adapts a []byte to io.WriterAt at a fixed object offset — how a
// caller that holds memory (the in-memory download's output, a pull copy's
// pooled chunk, a hedge's standby buffer) joins the WriterAt chunk
// pipeline. It counts delivered bytes so a cancelled hedge leg reports
// exactly how much duplicate payload it cost.
type chunkBuf struct {
	base int64
	buf  []byte
	n    atomic.Int64
}

func (b *chunkBuf) WriteAt(p []byte, off int64) (int, error) {
	i := off - b.base
	if i < 0 || i+int64(len(p)) > int64(len(b.buf)) {
		return 0, errors.New("davix: chunk write outside buffer")
	}
	copy(b.buf[i:], p)
	b.n.Add(int64(len(p)))
	return len(p), nil
}

// hedgeLeg is one side of a hedged race.
type hedgeLeg struct {
	res scatterResult
	err error
}

// scatterChunkHedged fetches chunk idx covering [off, off+ln) with a
// latency hedge. It returns handled=false when the race could not settle
// the chunk — a demoted primary, no healthy standby on another host, or
// both legs failed transiently — and the caller falls back to the serial
// ring walk.
func (c *Client) scatterChunkHedged(ctx context.Context, ring []Replica, idx int, off, ln int64, dst io.WriterAt, algo digest.Algo, sum, perChunk bool, budget time.Duration) (scatterResult, bool, error) {
	primary, standby, ok := c.health.hedgePair(ring, idx)
	if !ok {
		return scatterResult{}, false, nil
	}
	objPath := primary.Path

	run := func(ctx context.Context, rep Replica, w io.WriterAt) hedgeLeg {
		r, err := c.getRangeScatter(ctx, rep.Host, rep.Path, objPath, off, ln, w, algo, sum, perChunk)
		if err == nil && r.n != ln {
			err = fmt.Errorf("davix: short chunk from %s: %d < %d", rep.Host, r.n, ln)
		}
		return hedgeLeg{res: r, err: err}
	}

	// Primary leg: straight into dst.
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	pch := make(chan hedgeLeg, 1)
	go func() { pch <- run(pctx, primary, dst) }()

	timer := time.NewTimer(budget)
	defer timer.Stop()

	select {
	case l := <-pch:
		// Settled within budget: the common case, no hedge. A transient
		// failure hands the chunk back to the serial ring walk.
		if l.err == nil {
			return l.res, true, nil
		}
		if ctx.Err() != nil {
			return scatterResult{}, true, ctx.Err()
		}
		return scatterResult{}, false, nil
	case <-ctx.Done():
		<-pch // ctx cancellation aborts the blocked body read promptly
		return scatterResult{}, true, ctx.Err()
	case <-timer.C:
	}

	// Budget blown: race a duplicate request against the standby, into a
	// private buffer so the loser can never touch committed bytes.
	c.metrics.hedgesIssued.Add(1)
	c.opts.Trace.EmitHedgeIssued(objPath, idx, off, ln, standby.Host)
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	hbuf := &chunkBuf{base: off, buf: bufpool.Get(int(ln))}
	hch := make(chan hedgeLeg, 1)
	go func() { hch <- run(hctx, standby, hbuf) }()

	var pl, hl *hedgeLeg
	var winner *hedgeLeg
	hedgeWon := false
	for pl == nil || hl == nil {
		select {
		case l := <-pch:
			pl = &l
			if winner == nil && l.err == nil {
				winner = pl
				hcancel()
			}
		case l := <-hch:
			hl = &l
			if winner == nil && l.err == nil {
				winner = hl
				hedgeWon = true
				pcancel()
			}
		}
	}

	if winner == nil {
		bufpool.Put(hbuf.buf)
		if ctx.Err() != nil {
			return scatterResult{}, true, ctx.Err()
		}
		return scatterResult{}, false, nil
	}

	var wasted int64
	if hedgeWon {
		// Both legs have exited; the straggler can no longer write, so the
		// single commit below is the last touch on this chunk's bytes.
		wasted = pl.res.n
		if _, err := dst.WriteAt(hbuf.buf[:ln], off); err != nil {
			bufpool.Put(hbuf.buf)
			return scatterResult{}, true, err
		}
		c.metrics.hedgeWins.Add(1)
	} else {
		wasted = hbuf.n.Load()
	}
	bufpool.Put(hbuf.buf)
	c.metrics.hedgeWastedBytes.Add(wasted)
	c.opts.Trace.EmitHedgeSettled(objPath, idx, hedgeWon, wasted)
	return winner.res, true, nil
}
