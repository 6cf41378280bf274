package pool

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"godavix/internal/netsim"
)

func newFabric(t *testing.T) (*netsim.Network, string) {
	t.Helper()
	n := netsim.New(netsim.Ideal())
	addr := "host:80"
	l, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			_ = c // server keeps connections open
		}
	}()
	return n, addr
}

func TestGetDialsThenRecycles(t *testing.T) {
	n, addr := newFabric(t)
	p := New(n, Options{})
	defer p.Close()

	c1, err := p.Get(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Uses() != 1 {
		t.Fatalf("uses = %d", c1.Uses())
	}
	p.Put(c1)

	c2, err := p.Get(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c1 {
		t.Fatal("expected recycled connection")
	}
	if c2.Uses() != 2 {
		t.Fatalf("uses = %d", c2.Uses())
	}
	st := p.Stats()
	if st.Dials != 1 || st.Reuses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if n.Dials() != 1 {
		t.Fatalf("network dials = %d", n.Dials())
	}
}

func TestDiscardForcesRedial(t *testing.T) {
	n, addr := newFabric(t)
	p := New(n, Options{})
	defer p.Close()

	c1, _ := p.Get(context.Background(), addr)
	p.Discard(c1)
	c2, err := p.Get(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	if c2 == c1 {
		t.Fatal("discarded connection must not be recycled")
	}
	if n.Dials() != 2 {
		t.Fatalf("network dials = %d", n.Dials())
	}
}

func TestMaxPerHostBlocksUntilRelease(t *testing.T) {
	n, addr := newFabric(t)
	p := New(n, Options{MaxPerHost: 1})
	defer p.Close()

	c1, err := p.Get(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan *Conn)
	go func() {
		c, err := p.Get(context.Background(), addr)
		if err != nil {
			t.Error(err)
		}
		got <- c
	}()

	select {
	case <-got:
		t.Fatal("second Get should block at MaxPerHost=1")
	case <-time.After(30 * time.Millisecond):
	}

	p.Put(c1)
	select {
	case c2 := <-got:
		if c2 != c1 {
			t.Fatal("waiter should receive the recycled connection")
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never woke up")
	}
}

func TestMaxPerHostContextCancel(t *testing.T) {
	n, addr := newFabric(t)
	p := New(n, Options{MaxPerHost: 1})
	defer p.Close()

	c1, _ := p.Get(context.Background(), addr)
	defer p.Put(c1)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := p.Get(ctx, addr)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestIdleTTLExpiry(t *testing.T) {
	n, addr := newFabric(t)
	p := New(n, Options{IdleTTL: 10 * time.Millisecond})
	defer p.Close()

	c1, _ := p.Get(context.Background(), addr)
	p.Put(c1)
	time.Sleep(25 * time.Millisecond)
	c2, err := p.Get(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	if c2 == c1 {
		t.Fatal("stale idle connection must not be recycled")
	}
	if p.Stats().Discards != 1 {
		t.Fatalf("discards = %d", p.Stats().Discards)
	}
}

// TestIdleTTLBatchExpiry: a whole stack of stale idle conns is retired in
// one Get, each counted as a discard.
func TestIdleTTLBatchExpiry(t *testing.T) {
	n, addr := newFabric(t)
	p := New(n, Options{IdleTTL: 10 * time.Millisecond})
	defer p.Close()

	ctx := context.Background()
	conns := make([]*Conn, 3)
	for i := range conns {
		c, err := p.Get(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	for _, c := range conns {
		p.Put(c)
	}
	if got := p.IdleCount(addr); got != 3 {
		t.Fatalf("idle = %d, want 3", got)
	}
	time.Sleep(25 * time.Millisecond)
	c, err := p.Get(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range conns {
		if c == old {
			t.Fatal("stale connection recycled")
		}
	}
	if got := p.Stats().Discards; got != 3 {
		t.Fatalf("discards = %d, want 3", got)
	}
	if got := p.IdleCount(addr); got != 0 {
		t.Fatalf("idle after expiry = %d", got)
	}
}

// TestReapIdleSweep: the background sweep drops only the expired prefix of
// each idle stack and keeps per-host accounting intact.
func TestReapIdleSweep(t *testing.T) {
	n, addr := newFabric(t)
	p := New(n, Options{IdleTTL: 50 * time.Millisecond})
	defer p.Close()

	ctx := context.Background()
	c1, _ := p.Get(ctx, addr)
	c2, _ := p.Get(ctx, addr)
	p.Put(c1)
	time.Sleep(30 * time.Millisecond)
	p.Put(c2) // c1 is older than c2

	p.reapIdle(time.Now().Add(30 * time.Millisecond)) // c1 past TTL, c2 not
	if got := p.IdleCount(addr); got != 1 {
		t.Fatalf("idle = %d, want 1", got)
	}
	if got := p.ActiveCount(addr); got != 1 {
		t.Fatalf("active = %d, want 1", got)
	}
	c3, err := p.Get(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	if c3 != c2 {
		t.Fatal("survivor should be the fresher connection")
	}
}

// TestShardedHostsConcurrent hammers many hosts at once; per-host counters
// must stay exact despite the sharded locking.
func TestShardedHostsConcurrent(t *testing.T) {
	n := netsim.New(netsim.Ideal())
	hosts := make([]string, 8)
	for i := range hosts {
		hosts[i] = string(rune('a'+i)) + ":80"
		l, err := n.Listen(hosts[i])
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go func(l net.Listener) {
			for {
				if _, err := l.Accept(); err != nil {
					return
				}
			}
		}(l)
	}
	p := New(n, Options{MaxPerHost: 2})
	defer p.Close()

	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				host := hosts[(w+i)%len(hosts)]
				c, err := p.Get(context.Background(), host)
				if err != nil {
					t.Error(err)
					return
				}
				p.Put(c)
			}
		}(w)
	}
	wg.Wait()
	for _, h := range hosts {
		if a := p.ActiveCount(h); a < 0 || a > 2 {
			t.Fatalf("host %s active = %d", h, a)
		}
	}
}

func TestMaxIdleOverflowCloses(t *testing.T) {
	n, addr := newFabric(t)
	p := New(n, Options{MaxIdlePerHost: 1})
	defer p.Close()

	ctx := context.Background()
	c1, _ := p.Get(ctx, addr)
	c2, _ := p.Get(ctx, addr)
	p.Put(c1)
	p.Put(c2) // overflow: closed
	if got := p.IdleCount(addr); got != 1 {
		t.Fatalf("idle = %d, want 1", got)
	}
	if p.Stats().Discards != 1 {
		t.Fatalf("discards = %d", p.Stats().Discards)
	}
	_ = n
}

// TestNeverExceedsMaxPerHost hammers the pool with concurrent borrowers and
// asserts the per-host cap invariant throughout.
func TestNeverExceedsMaxPerHost(t *testing.T) {
	n, addr := newFabric(t)
	const cap = 4
	p := New(n, Options{MaxPerHost: cap})
	defer p.Close()

	var wg sync.WaitGroup
	var mu sync.Mutex
	inUse, peak := 0, 0
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := p.Get(context.Background(), addr)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			inUse++
			if inUse > peak {
				peak = inUse
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			inUse--
			mu.Unlock()
			p.Put(c)
		}()
	}
	wg.Wait()
	if peak > cap {
		t.Fatalf("peak concurrent borrowed = %d > cap %d", peak, cap)
	}
	if p.ActiveCount(addr) > cap {
		t.Fatalf("active = %d > cap", p.ActiveCount(addr))
	}
}

// TestNoDoubleBorrow: a recycled conn is never handed to two workers at
// once.
func TestNoDoubleBorrow(t *testing.T) {
	n, addr := newFabric(t)
	p := New(n, Options{MaxPerHost: 2})
	defer p.Close()

	var mu sync.Mutex
	held := make(map[*Conn]bool)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := p.Get(context.Background(), addr)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			if held[c] {
				t.Errorf("connection double-borrowed")
			}
			held[c] = true
			mu.Unlock()
			time.Sleep(500 * time.Microsecond)
			mu.Lock()
			held[c] = false
			mu.Unlock()
			p.Put(c)
		}()
	}
	wg.Wait()
}

func TestGetAfterCloseFails(t *testing.T) {
	n, addr := newFabric(t)
	p := New(n, Options{})
	p.Close()
	if _, err := p.Get(context.Background(), addr); err != ErrPoolClosed {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
}

func TestCloseIdleKillsPooledConns(t *testing.T) {
	n, addr := newFabric(t)
	p := New(n, Options{})
	defer p.Close()

	c1, _ := p.Get(context.Background(), addr)
	p.Put(c1)
	p.CloseIdle(addr)
	if p.IdleCount(addr) != 0 {
		t.Fatal("idle connections not closed")
	}
	c2, err := p.Get(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	if c2 == c1 {
		t.Fatal("closed connection recycled")
	}
	_ = n
}

func TestDialErrorReleasesSlot(t *testing.T) {
	bad := DialerFunc(func(ctx context.Context, addr string) (net.Conn, error) {
		return nil, errors.New("boom")
	})
	p := New(bad, Options{MaxPerHost: 1})
	defer p.Close()
	for i := 0; i < 3; i++ {
		if _, err := p.Get(context.Background(), "x:1"); err == nil {
			t.Fatal("expected dial error")
		}
	}
	// Slot must not leak: ActiveCount returns to zero.
	if p.ActiveCount("x:1") != 0 {
		t.Fatalf("active = %d after failed dials", p.ActiveCount("x:1"))
	}
}

func TestPerHostIsolation(t *testing.T) {
	n := netsim.New(netsim.Ideal())
	for _, a := range []string{"a:1", "b:1"} {
		l, err := n.Listen(a)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go func(l net.Listener) {
			for {
				if _, err := l.Accept(); err != nil {
					return
				}
			}
		}(l)
	}
	p := New(n, Options{})
	defer p.Close()

	ca, _ := p.Get(context.Background(), "a:1")
	p.Put(ca)
	cb, err := p.Get(context.Background(), "b:1")
	if err != nil {
		t.Fatal(err)
	}
	if cb == ca {
		t.Fatal("connection recycled across hosts")
	}
	if p.IdleCount("a:1") != 1 || p.IdleCount("b:1") != 0 {
		t.Fatal("per-host idle accounting wrong")
	}
}
