package netsim

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrHostDown is returned by Dial when the target host has been marked
// unavailable with SetDown, modelling the paper's "offline server" case.
var ErrHostDown = errors.New("netsim: host down")

// ErrNoListener is returned by Dial when nothing listens on the address.
var ErrNoListener = errors.New("netsim: connection refused")

// Network is an in-process fabric of simulated hosts. Servers Listen on
// string addresses ("dpm1:80"); clients Dial them. Every connection is
// shaped by the Network's Profile (or a per-host override).
//
// A Network is safe for concurrent use.
type Network struct {
	prof Profile

	mu        sync.Mutex
	listeners map[string]*Listener
	down      map[string]bool
	hostProf  map[string]Profile
	dials     int64
	conns     []*Conn
}

// New creates a Network whose connections are shaped by prof.
func New(prof Profile) *Network {
	return &Network{
		prof:      prof,
		listeners: make(map[string]*Listener),
		down:      make(map[string]bool),
		hostProf:  make(map[string]Profile),
	}
}

// SetHostProfile overrides the link profile used when dialing addr,
// letting one fabric host e.g. both a LAN replica and a WAN replica.
func (n *Network) SetHostProfile(addr string, p Profile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.hostProf[addr] = p
}

// SetDown marks addr unreachable (true) or reachable (false). New dials to
// a down host fail with ErrHostDown; established connections are aborted.
func (n *Network) SetDown(addr string, down bool) {
	n.mu.Lock()
	n.down[addr] = down
	var victims []*Conn
	if down {
		for _, c := range n.conns {
			if string(c.remote) == addr || string(c.local) == addr {
				victims = append(victims, c)
			}
		}
	}
	n.mu.Unlock()
	for _, c := range victims {
		c.Abort()
	}
}

// Dials reports how many successful Dial calls have completed; benchmarks
// use it to count connection establishment (Figure 2).
func (n *Network) Dials() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dials
}

// acceptBacklog is a listener's accept queue, the simulated SYN queue: a
// Dial past it blocks until the server accepts.
const acceptBacklog = 16

// Listen starts accepting connections on addr.
func (n *Network) Listen(addr string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("netsim: address %s already in use", addr)
	}
	l := &Listener{
		net:    n,
		addr:   Addr(addr),
		accept: make(chan *Conn, acceptBacklog),
		done:   make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

// Dial connects to addr, paying the profile's handshake cost.
func (n *Network) Dial(addr string) (net.Conn, error) {
	return n.DialContext(context.Background(), addr)
}

// DialContext connects to addr, honouring ctx cancellation during the
// simulated handshake.
func (n *Network) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	n.mu.Lock()
	if n.down[addr] {
		n.mu.Unlock()
		return nil, &net.OpError{Op: "dial", Net: "sim", Addr: Addr(addr), Err: ErrHostDown}
	}
	l, ok := n.listeners[addr]
	prof := n.prof
	if hp, ok2 := n.hostProf[addr]; ok2 {
		prof = hp
	}
	n.mu.Unlock()
	if !ok {
		return nil, &net.OpError{Op: "dial", Net: "sim", Addr: Addr(addr), Err: ErrNoListener}
	}

	// Pay the TCP handshake: HandshakeRTTs full round trips.
	if hs := time.Duration(prof.HandshakeRTTs) * prof.RTT; hs > 0 {
		t := time.NewTimer(hs)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}

	client, server := newConnPair(prof, Addr(fmt.Sprintf("client-%d", nextConnID())), Addr(addr))

	select {
	case l.accept <- server:
	case <-l.done:
		return nil, &net.OpError{Op: "dial", Net: "sim", Addr: Addr(addr), Err: ErrNoListener}
	case <-ctx.Done():
		return nil, ctx.Err()
	}

	n.mu.Lock()
	n.dials++
	n.conns = append(n.conns, client, server)
	n.mu.Unlock()
	return client, nil
}

var (
	connIDMu sync.Mutex
	connID   int64
)

func nextConnID() int64 {
	connIDMu.Lock()
	defer connIDMu.Unlock()
	connID++
	return connID
}

// Listener implements net.Listener for a simulated address.
type Listener struct {
	net    *Network
	addr   Addr
	accept chan *Conn
	done   chan struct{}
	once   sync.Once
}

// Accept waits for an inbound connection.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, &net.OpError{Op: "accept", Net: "sim", Addr: l.addr, Err: net.ErrClosed}
	}
}

// Close stops the listener and removes it from the fabric.
func (l *Listener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		delete(l.net.listeners, string(l.addr))
		l.net.mu.Unlock()
	})
	return nil
}

// Addr returns the listener's simulated address.
func (l *Listener) Addr() net.Addr { return l.addr }
