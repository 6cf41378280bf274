// Package bench holds the testbed environment (storage servers over a
// simulated network) and the experiments that have no exact package test
// or committed benchmark workload yet, each emitting one table.
package bench

import (
	"context"
	"fmt"

	"godavix/internal/core"
	"godavix/internal/httpserv"
	"godavix/internal/netsim"
	"godavix/internal/storage"
	"godavix/internal/xrootd"
)

// Options configures the experiments.
type Options struct {
	// Repeats is how many times each measurement is taken (default 5).
	Repeats int
}

func (o Options) withDefaults() Options {
	if o.Repeats == 0 {
		o.Repeats = 5
	}
	return o
}

// Standard testbed addresses.
const (
	HTTPAddr = "dpm1:80"
	XrdAddr  = "dpm1:1094"
	FedAddr  = "fed:80"
)

// Env is one instantiation of the paper's testbed: a storage node serving
// the same namespace over both HTTP (DPM-like) and the xrootd-like
// protocol, reachable through a netsim fabric with a given latency class.
type Env struct {
	// Net is the simulated fabric.
	Net *netsim.Network
	// Store is the shared backing namespace.
	Store *storage.MemStore
	// HTTPServer and XrdServer expose request counters.
	HTTPServer *httpserv.Server
	// XrdServer is the xrootd-like server.
	XrdServer *xrootd.Server

	closers []func()
}

// NewEnv builds the testbed on the given network profile.
func NewEnv(prof netsim.Profile, httpOpts httpserv.Options) (*Env, error) {
	e := &Env{
		Net:   netsim.New(prof),
		Store: storage.NewMemStore(),
	}
	e.HTTPServer = httpserv.New(e.Store, httpOpts)
	hl, err := e.Net.Listen(HTTPAddr)
	if err != nil {
		return nil, err
	}
	e.closers = append(e.closers, func() { hl.Close() })
	go e.HTTPServer.Serve(hl)

	e.XrdServer = xrootd.NewServer(e.Store)
	xl, err := e.Net.Listen(XrdAddr)
	if err != nil {
		e.Close()
		return nil, err
	}
	e.closers = append(e.closers, func() { xl.Close() })
	go e.XrdServer.Serve(xl)
	return e, nil
}

// Close tears the testbed down.
func (e *Env) Close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
}

// NewHTTPClient creates a davix client on the fabric.
func (e *Env) NewHTTPClient(opts core.Options) (*core.Client, error) {
	opts.Dialer = e.Net
	return core.NewClient(opts)
}

// NewXrdClient creates an xrootd client on the fabric.
func (e *Env) NewXrdClient() *xrootd.Client {
	return xrootd.NewClient(e.Net, XrdAddr)
}

// OpenHTTP opens path through davix.
func (e *Env) OpenHTTP(ctx context.Context, c *core.Client, path string) (*core.File, error) {
	f, err := c.Open(ctx, HTTPAddr, path)
	if err != nil {
		return nil, fmt.Errorf("bench: open http: %w", err)
	}
	return f, nil
}
