// Package pool implements the paper's dynamic connection pool with
// thread-safe request dispatch and session recycling (paper §2.2, Figure 2).
//
// Instead of HTTP pipelining (head-of-line blocking) or a multiplexing
// protocol change (SPDY/SCTP), davix keeps per-host lists of idle persistent
// connections. Concurrent requests each borrow a connection — so the pool
// grows proportionally to the level of concurrency — and return it for
// recycling once the response body has been consumed. Aggressive KeepAlive
// reuse maximizes TCP connection lifetime and amortizes both the handshake
// and slow-start costs, which is exactly what makes HTTP competitive with
// HPC protocols in the paper's LAN results.
//
// The pool is sharded by host: each host hashes (FNV-1a) onto one of a
// fixed array of shards with its own mutex, idle stacks, and waiter lists,
// so concurrent Get/Put traffic against different hosts never contends on
// a shared lock. Activity counters are atomics, read lock-free by Stats.
package pool

import (
	"bufio"
	"context"
	"crypto/tls"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Dialer establishes transport connections; implemented by netsim.Network
// and by net.Dialer adapters.
type Dialer interface {
	DialContext(ctx context.Context, addr string) (net.Conn, error)
}

// DialerFunc adapts a function to the Dialer interface.
type DialerFunc func(ctx context.Context, addr string) (net.Conn, error)

// DialContext calls f.
func (f DialerFunc) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	return f(ctx, addr)
}

// Options configures a Pool. The zero value gives sensible defaults.
type Options struct {
	// MaxPerHost bounds total concurrent connections per host; 0 means
	// unlimited ("pool size proportional to the level of concurrency", the
	// paper's default behaviour).
	MaxPerHost int

	// TLS, when non-nil, upgrades every dialed connection to a TLS client
	// session with this configuration (the handshake runs inside Get, under
	// the caller's context). The config is cloned once at New; when it does
	// not bring a ClientSessionCache the pool installs one LRU cache shared
	// across all host shards, so a reconnect to any host resumes its last
	// session instead of paying a full handshake — Stats.TLSResumes counts
	// the saves. ServerName defaults to the dialed host (port stripped)
	// when the config leaves it empty.
	TLS *tls.Config
}

const (
	// maxIdlePerHost bounds the idle connections kept per host; a
	// connection released onto a full stack is closed.
	maxIdlePerHost = 64
	// idleTTL discards idle connections older than this.
	idleTTL = 60 * time.Second
)

// Stats aggregates pool activity counters; used by the Figure 2 benches.
type Stats struct {
	// Dials counts new transport connections established.
	Dials int64
	// Reuses counts requests served on a recycled connection.
	Reuses int64
	// Discards counts connections dropped (TTL, error, overflow).
	Discards int64
	// TLSHandshakes counts completed TLS handshakes (only with Options.TLS).
	TLSHandshakes int64
	// TLSResumes counts handshakes that resumed a cached session instead of
	// running the full exchange.
	TLSResumes int64
}

// ErrPoolClosed is returned by Get after Close.
var ErrPoolClosed = errors.New("pool: closed")

// numShards spreads hosts over independent locks. A power of two so the
// hash maps with a mask; 16 shards keep contention negligible well past
// the handful of storage hosts a federation client talks to.
const numShards = 16

// shard holds the pool state for the hosts hashing onto it.
type shard struct {
	mu      sync.Mutex
	idle    map[string][]*Conn // host -> LIFO stack of idle conns
	active  map[string]int     // host -> borrowed + idle count
	waiters map[string][]chan struct{}
}

// Pool is a per-host dynamic connection pool. It is safe for concurrent use.
type Pool struct {
	dialer Dialer
	opts   Options

	shards [numShards]shard
	closed atomic.Bool

	dials         atomic.Int64
	reuses        atomic.Int64
	discards      atomic.Int64
	tlsHandshakes atomic.Int64
	tlsResumes    atomic.Int64

	// tlsConf is the cloned Options.TLS with the shared session cache
	// installed (nil when TLS is off).
	tlsConf *tls.Config

	reaperStop  chan struct{}
	reaperStart sync.Once
	reaperHalt  sync.Once
}

// New creates a Pool dialing through d.
func New(d Dialer, opts Options) *Pool {
	p := &Pool{
		dialer:     d,
		opts:       opts,
		reaperStop: make(chan struct{}),
	}
	for i := range p.shards {
		s := &p.shards[i]
		s.idle = make(map[string][]*Conn)
		s.active = make(map[string]int)
		s.waiters = make(map[string][]chan struct{})
	}
	if p.opts.TLS != nil {
		p.tlsConf = p.opts.TLS.Clone()
		if p.tlsConf.ClientSessionCache == nil {
			// One cache across every host shard: whichever shard dials a
			// host next resumes the session any shard established.
			p.tlsConf.ClientSessionCache = tls.NewLRUClientSessionCache(256)
		}
	}
	return p
}

// upgradeTLS runs the TLS client handshake over raw (a no-op when the pool
// has no TLS config). The session cache shared across shards makes repeat
// handshakes to any previously-seen host resumptions.
func (p *Pool) upgradeTLS(ctx context.Context, host string, raw net.Conn) (net.Conn, error) {
	if p.tlsConf == nil {
		return raw, nil
	}
	cfg := p.tlsConf
	if cfg.ServerName == "" {
		name := host
		if h, _, err := net.SplitHostPort(host); err == nil {
			name = h
		}
		cfg = cfg.Clone()
		cfg.ServerName = name
	}
	tc := tls.Client(raw, cfg)
	if err := tc.HandshakeContext(ctx); err != nil {
		raw.Close()
		return nil, err
	}
	p.tlsHandshakes.Add(1)
	if tc.ConnectionState().DidResume {
		p.tlsResumes.Add(1)
	}
	return tc, nil
}

// shardFor hashes host (FNV-1a) onto its shard. The same host always maps
// to the same shard, so per-host invariants (MaxPerHost, waiter FIFO) are
// guarded by exactly one lock.
func (p *Pool) shardFor(host string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(host); i++ {
		h = (h ^ uint32(host[i])) * 16777619
	}
	return &p.shards[h&(numShards-1)]
}

// Conn is a pooled connection with its buffered reader and usage accounting.
type Conn struct {
	netConn net.Conn
	br      *bufio.Reader
	host    string
	pool    *Pool

	uses     int
	idleAt   time.Time
	borrowed bool
}

// NetConn exposes the underlying transport connection.
func (c *Conn) NetConn() net.Conn { return c.netConn }

// Reader returns the buffered reader tied to the connection. Response
// parsing must go through this reader so buffered bytes are not lost
// across recycling.
func (c *Conn) Reader() *bufio.Reader { return c.br }

// Uses reports how many times the connection has been borrowed.
func (c *Conn) Uses() int { return c.uses }

// Get borrows a connection to host, recycling an idle one when available,
// dialing otherwise. When MaxPerHost is reached, Get blocks until a
// connection is released or ctx is done.
func (p *Pool) Get(ctx context.Context, host string) (*Conn, error) {
	s := p.shardFor(host)
	for {
		if p.closed.Load() {
			return nil, ErrPoolClosed
		}
		s.mu.Lock()
		if p.closed.Load() {
			s.mu.Unlock()
			return nil, ErrPoolClosed
		}
		// Fast path: pop the most recently used idle connection (LIFO keeps
		// sessions warm and lets surplus ones expire).
		if stack := s.idle[host]; len(stack) > 0 {
			c := stack[len(stack)-1]
			if time.Since(c.idleAt) > idleTTL {
				// LIFO order means the top is the freshest: when it has
				// expired, everything under it has too. Retire the whole
				// stack in one batch under a single lock acquisition
				// instead of paying one lock round-trip per stale conn.
				delete(s.idle, host)
				s.active[host] -= len(stack)
				p.discards.Add(int64(len(stack)))
				s.notifyNLocked(host, len(stack))
				s.mu.Unlock()
				for _, sc := range stack {
					sc.netConn.Close()
				}
				continue
			}
			s.idle[host] = stack[:len(stack)-1]
			c.borrowed = true
			c.uses++
			p.reuses.Add(1)
			s.mu.Unlock()
			return c, nil
		}
		if p.opts.MaxPerHost > 0 && s.active[host] >= p.opts.MaxPerHost {
			// At capacity: wait for a Put/Discard.
			ch := make(chan struct{})
			s.waiters[host] = append(s.waiters[host], ch)
			s.mu.Unlock()
			select {
			case <-ch:
				continue
			case <-ctx.Done():
				p.abandonWaiter(s, host, ch)
				return nil, ctx.Err()
			}
		}
		s.active[host]++
		s.mu.Unlock()

		nc, err := p.dialer.DialContext(ctx, host)
		if err == nil {
			nc, err = p.upgradeTLS(ctx, host, nc)
		}
		if err != nil {
			s.mu.Lock()
			s.active[host]--
			s.notifyLocked(host)
			s.mu.Unlock()
			return nil, err
		}
		p.dials.Add(1)
		return &Conn{
			netConn:  nc,
			br:       bufio.NewReaderSize(nc, 16*1024),
			host:     host,
			pool:     p,
			uses:     1,
			borrowed: true,
		}, nil
	}
}

// Put returns c to the pool for recycling. The caller asserts the
// connection is positioned at a message boundary (response fully consumed)
// and the server allowed keep-alive; otherwise use Discard.
func (p *Pool) Put(c *Conn) {
	if c == nil || !c.borrowed {
		return
	}
	s := p.shardFor(c.host)
	s.mu.Lock()
	defer s.mu.Unlock()
	c.borrowed = false
	if p.closed.Load() || len(s.idle[c.host]) >= maxIdlePerHost {
		s.active[c.host]--
		p.discards.Add(1)
		s.notifyLocked(c.host)
		go c.netConn.Close()
		return
	}
	c.idleAt = time.Now()
	s.idle[c.host] = append(s.idle[c.host], c)
	s.notifyLocked(c.host)
	// The reaper only matters once connections actually sit idle; starting
	// it lazily keeps never-Closed pools that never park a connection free
	// of background goroutines.
	p.reaperStart.Do(func() { go p.reapLoop() })
}

// Discard drops c without recycling (connection poisoned: protocol error,
// unconsumed body, server sent Connection: close).
func (p *Pool) Discard(c *Conn) {
	if c == nil || !c.borrowed {
		return
	}
	s := p.shardFor(c.host)
	s.mu.Lock()
	c.borrowed = false
	s.active[c.host]--
	p.discards.Add(1)
	s.notifyLocked(c.host)
	s.mu.Unlock()
	c.netConn.Close()
}

// notifyLocked wakes one waiter for host. Caller holds s.mu.
func (s *shard) notifyLocked(host string) {
	if ws := s.waiters[host]; len(ws) > 0 {
		close(ws[0])
		s.waiters[host] = ws[1:]
	}
}

// notifyNLocked wakes up to n waiters for host. Caller holds s.mu.
func (s *shard) notifyNLocked(host string, n int) {
	for i := 0; i < n; i++ {
		s.notifyLocked(host)
	}
}

func (p *Pool) abandonWaiter(s *shard, host string, ch chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ws := s.waiters[host]
	for i, w := range ws {
		if w == ch {
			s.waiters[host] = append(ws[:i], ws[i+1:]...)
			return
		}
	}
	// Already notified: pass the token on so it is not lost.
	s.notifyLocked(host)
}

// reapLoop periodically sweeps every shard for idle connections past the
// TTL, so long-idle hosts release their sockets without waiting for the
// next Get to stumble over them.
func (p *Pool) reapLoop() {
	t := time.NewTicker(idleTTL / 2)
	defer t.Stop()
	for {
		select {
		case <-p.reaperStop:
			return
		case <-t.C:
			p.reapIdle(time.Now())
		}
	}
}

// reapIdle batch-discards idle connections older than the TTL as of now.
// Stacks are in Put order, oldest at the bottom, so each sweep removes a
// prefix under one lock acquisition per shard.
func (p *Pool) reapIdle(now time.Time) {
	var expired []*Conn
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for host, stack := range s.idle {
			keep := 0
			for keep < len(stack) && now.Sub(stack[keep].idleAt) > idleTTL {
				keep++
			}
			if keep == 0 {
				continue
			}
			expired = append(expired, stack[:keep]...)
			rest := stack[keep:]
			if len(rest) == 0 {
				delete(s.idle, host)
			} else {
				s.idle[host] = append(stack[:0], rest...)
			}
			s.active[host] -= keep
			p.discards.Add(int64(keep))
			s.notifyNLocked(host, keep)
		}
		s.mu.Unlock()
	}
	for _, c := range expired {
		c.netConn.Close()
	}
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Dials:         p.dials.Load(),
		Reuses:        p.reuses.Load(),
		Discards:      p.discards.Load(),
		TLSHandshakes: p.tlsHandshakes.Load(),
		TLSResumes:    p.tlsResumes.Load(),
	}
}

// IdleCount reports idle connections currently pooled for host.
func (p *Pool) IdleCount(host string) int {
	s := p.shardFor(host)
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idle[host])
}

// ActiveCount reports total (borrowed + idle) connections for host.
func (p *Pool) ActiveCount(host string) int {
	s := p.shardFor(host)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active[host]
}

// CloseIdle closes all idle connections, e.g. after a host is known dead.
func (p *Pool) CloseIdle(host string) {
	s := p.shardFor(host)
	s.mu.Lock()
	stack := s.idle[host]
	delete(s.idle, host)
	s.active[host] -= len(stack)
	p.discards.Add(int64(len(stack)))
	s.notifyNLocked(host, len(stack))
	s.mu.Unlock()
	for _, c := range stack {
		c.netConn.Close()
	}
}

// Close shuts the pool down, closing all idle connections. Borrowed
// connections are closed as they are returned.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	p.reaperHalt.Do(func() { close(p.reaperStop) })
	var all []*Conn
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for host, stack := range s.idle {
			all = append(all, stack...)
			s.active[host] -= len(stack)
		}
		s.idle = make(map[string][]*Conn)
		for host, ws := range s.waiters {
			for _, ch := range ws {
				close(ch)
			}
			delete(s.waiters, host)
		}
		s.mu.Unlock()
	}
	for _, c := range all {
		c.netConn.Close()
	}
}
