package xrootd

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"godavix/internal/pool"
)

// This file implements the XRootD federation mechanism the paper contrasts
// with davix's Metalink approach (§2.4): "XRootD data servers can be
// federated hierarchically into a global virtual namespace. In case of
// unavailability of a resource in the closest data repository, the XRootD
// federation mechanism will locate a second available replica of this
// resource and redirect the client there."
//
// A Manager is the redirector node: clients send it Locate requests and
// get back the address of a live data server holding the path. A Cluster
// is the client-side wrapper that talks to the manager and transparently
// re-locates when its current data server fails.

// ReqLocate asks a manager for a data server holding the path in the
// payload; the response payload is the server address ("dpm1:1094").
const ReqLocate uint16 = 100

// ErrNoReplica is returned when no federated server holds the resource.
var ErrNoReplica = errors.New("xrootd: no live replica in federation")

// Manager is the federation redirector. It health-checks its data servers
// through the fabric and answers Locate requests with the first live
// server that can stat the requested path.
type Manager struct {
	dialer  pool.Dialer
	servers []string

	mu      sync.Mutex
	clients map[string]*Client
	health  map[string]managerHealth
	ttl     time.Duration

	locates int64
}

type managerHealth struct {
	alive bool
	at    time.Time
}

// probeTimeout bounds one health probe within the caller's context. It is
// not the cache TTL: a short TTL means "re-probe often", not "a Stat that
// takes longer than this is a dead server".
const probeTimeout = time.Second

// NewManager creates a Manager federating the given data servers, probed
// through d. healthTTL bounds probe caching (0 selects 2s).
func NewManager(d pool.Dialer, servers []string, healthTTL time.Duration) *Manager {
	if healthTTL == 0 {
		healthTTL = 2 * time.Second
	}
	return &Manager{
		dialer:  d,
		servers: append([]string(nil), servers...),
		clients: make(map[string]*Client),
		health:  make(map[string]managerHealth),
		ttl:     healthTTL,
	}
}

// Locates reports how many Locate requests were answered.
func (m *Manager) Locates() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.locates
}

// clientFor returns (creating lazily) the manager's client for addr.
func (m *Manager) clientFor(addr string) *Client {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.clients[addr]
	if !ok {
		c = NewClient(m.dialer, addr)
		m.clients[addr] = c
	}
	return c
}

// locate returns the first live server holding path.
func (m *Manager) locate(ctx context.Context, path string) (string, error) {
	for _, addr := range m.servers {
		m.mu.Lock()
		h, ok := m.health[addr]
		fresh := ok && time.Since(h.at) < m.ttl
		m.mu.Unlock()
		if fresh && !h.alive {
			continue
		}
		pctx, cancel := context.WithTimeout(ctx, probeTimeout)
		_, _, err := m.clientFor(addr).Stat(pctx, path)
		cancel()
		alive := err == nil || errors.Is(err, ErrNotFound)
		m.mu.Lock()
		m.health[addr] = managerHealth{alive: alive, at: time.Now()}
		m.mu.Unlock()
		if err == nil {
			return addr, nil
		}
	}
	return "", ErrNoReplica
}

// Serve accepts redirector connections on l.
func (m *Manager) Serve(l net.Listener) error {
	for {
		c, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go m.serveConn(c)
	}
}

func (m *Manager) serveConn(c net.Conn) {
	defer c.Close()
	var hs [8]byte
	if _, err := io.ReadFull(c, hs[:]); err != nil {
		return
	}
	if binary.BigEndian.Uint32(hs[0:4]) != Magic {
		return
	}
	binary.BigEndian.PutUint32(hs[4:8], Version)
	if _, err := c.Write(hs[:]); err != nil {
		return
	}
	var wmu sync.Mutex
	for {
		req, err := readRequest(c)
		if err != nil {
			return
		}
		go func(req *requestFrame) {
			resp := &responseFrame{Stream: req.Stream, Status: StatusOK}
			switch req.Op {
			case ReqLogin:
				// accepted
			case ReqLocate:
				m.mu.Lock()
				m.locates++
				m.mu.Unlock()
				addr, err := m.locate(context.Background(), string(req.Payload))
				if err != nil {
					resp.Status = StatusNotFound
				} else {
					resp.Payload = []byte(addr)
				}
			default:
				// A redirector serves no data; point clients at Locate.
				resp.Status = StatusBadRequest
			}
			wmu.Lock()
			writeResponse(c, resp)
			wmu.Unlock()
		}(req)
	}
}

// Cluster is the client side of the federation: it asks the manager where
// a path lives, opens it on that data server, and transparently
// re-locates when the server dies — the behaviour the paper credits the
// XRootD federation with.
type Cluster struct {
	dialer  pool.Dialer
	manager *Client

	mu      sync.Mutex
	clients map[string]*Client
}

// NewCluster creates a Cluster using the manager at managerAddr.
func NewCluster(d pool.Dialer, managerAddr string) *Cluster {
	return &Cluster{
		dialer:  d,
		manager: NewClient(d, managerAddr),
		clients: make(map[string]*Client),
	}
}

// Close shuts down the manager connection and every data-server client.
func (cl *Cluster) Close() {
	cl.manager.Close()
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for _, c := range cl.clients {
		c.Close()
	}
}

func (cl *Cluster) clientFor(addr string) *Client {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	c, ok := cl.clients[addr]
	if !ok {
		c = NewClient(cl.dialer, addr)
		cl.clients[addr] = c
	}
	return c
}

// Locate asks the manager for a live server holding path.
func (cl *Cluster) Locate(ctx context.Context, path string) (string, error) {
	resp, err := cl.manager.call(ctx, &requestFrame{Op: ReqLocate, Payload: []byte(path)})
	if err != nil {
		return "", err
	}
	if resp.Status != StatusOK {
		return "", fmt.Errorf("locate %s: %w", path, ErrNoReplica)
	}
	return string(resp.Payload), nil
}

// ClusterFile is a federated file handle that re-locates on failure.
type ClusterFile struct {
	cluster *Cluster
	path    string

	mu   sync.Mutex
	addr string
	file *File
}

// Open locates and opens path somewhere in the federation.
func (cl *Cluster) Open(ctx context.Context, path string) (*ClusterFile, error) {
	cf := &ClusterFile{cluster: cl, path: path}
	if err := cf.relocate(ctx); err != nil {
		return nil, err
	}
	return cf, nil
}

// relocate (re)binds the handle to a live data server.
func (cf *ClusterFile) relocate(ctx context.Context) error {
	addr, err := cf.cluster.Locate(ctx, cf.path)
	if err != nil {
		return err
	}
	f, err := cf.cluster.clientFor(addr).Open(ctx, cf.path)
	if err != nil {
		return err
	}
	cf.mu.Lock()
	cf.addr, cf.file = addr, f
	cf.mu.Unlock()
	return nil
}

// Server returns the data server currently bound.
func (cf *ClusterFile) Server() string {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	return cf.addr
}

// Size returns the file size.
func (cf *ClusterFile) Size() int64 {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	return cf.file.Size()
}

// ReadAt reads at off, re-locating once if the bound server fails.
func (cf *ClusterFile) ReadAt(ctx context.Context, p []byte, off int64) (int, error) {
	cf.mu.Lock()
	f := cf.file
	cf.mu.Unlock()
	n, err := f.ReadAt(ctx, p, off)
	if err == nil || err == io.EOF || errors.Is(err, context.Canceled) {
		return n, err
	}
	// The data server died: ask the manager for another replica.
	if rerr := cf.relocate(ctx); rerr != nil {
		return 0, errors.Join(err, rerr)
	}
	cf.mu.Lock()
	f = cf.file
	cf.mu.Unlock()
	return f.ReadAt(ctx, p, off)
}
