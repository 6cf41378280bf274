// Package bench holds the testbed environment (storage servers over a
// simulated network), the ROOT-style analysis job of the paper's §3, and
// the experiments that have no exact package test or committed benchmark
// workload yet, each emitting one table.
package bench

import (
	"context"
	"fmt"
	"io"

	"godavix/internal/core"
	"godavix/internal/httpserv"
	"godavix/internal/netsim"
	"godavix/internal/rangev"
	"godavix/internal/rootio"
	"godavix/internal/storage"
	"godavix/internal/xrootd"
)

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

// HTTPSource adapts a davix File to a rootio Source. Plain davix performs
// vectored reads synchronously — the paper's HTTP path has no asynchronous
// prefetch, which is exactly what costs it on the WAN.
func HTTPSource(f *core.File) rootio.Source {
	return rootio.Source{
		Size:    f.Size(),
		ReadVec: f.ReadVec,
	}
}

// HTTPSourceAsync adds the davix File's cancellable asynchronous vectored
// read, the fill's context passed through. This is NOT in the paper — it
// is the repository's "future work" ablation showing that HTTP plus
// prefetch would close the WAN gap (see EXPERIMENTS.md).
func HTTPSourceAsync(f *core.File) rootio.Source {
	src := HTTPSource(f)
	src.ReadVecAsyncCtx = f.ReadVecAsyncCtx
	return src
}

// HTTPSourcePipelined exposes the davix File's cancellable asynchronous
// vectored read and its read-ahead hint to rootio, letting the TreeCache
// keep the next windows' transfers in flight under the current window's
// decode/compute — the overlap the xrootd baseline gets from kXR_readv,
// now on the HTTP path.
func HTTPSourcePipelined(f *core.File) rootio.Source {
	src := HTTPSourceAsync(f)
	src.Hint = f.PrefetchHint
	return src
}

// HTTPSourceReadAt adapts a davix File to rootio through plain ReadAt
// calls: every range becomes a separate read through the client's block
// cache, so the cache's read-ahead — not the vectored path — serves the
// workload. This is the "cache RA" baseline of the analysis experiment.
func HTTPSourceReadAt(f *core.File) rootio.Source {
	return rootio.Source{
		Size: f.Size(),
		ReadVec: func(ranges []rangev.Range, dsts [][]byte) error {
			for i, r := range ranges {
				if _, err := f.ReadAt(dsts[i][:r.Len], r.Off); err != nil && err != io.EOF {
					return err
				}
			}
			return nil
		},
	}
}

// XrdSource adapts an xrootd File to a rootio Source, exposing both the
// synchronous and asynchronous (sliding-window style) vectored reads.
func XrdSource(ctx context.Context, f *xrootd.File) rootio.Source {
	toChunks := func(ranges []rangev.Range) []xrootd.Chunk {
		chunks := make([]xrootd.Chunk, len(ranges))
		for i, r := range ranges {
			chunks[i] = xrootd.Chunk{Offset: r.Off, Length: int32(r.Len)}
		}
		return chunks
	}
	return rootio.Source{
		Size: f.Size(),
		ReadVec: func(ranges []rangev.Range, dsts [][]byte) error {
			return f.ReadV(ctx, toChunks(ranges), dsts)
		},
		ReadVecAsyncCtx: func(ctx context.Context, ranges []rangev.Range, dsts [][]byte) <-chan error {
			return f.ReadVAsync(ctx, toChunks(ranges), dsts)
		},
	}
}

// InstallDataset synthesizes the RNT event file and stores it at path on
// the env's shared store, returning the file image size.
func (e *Env) InstallDataset(path string, spec rootio.SynthSpec) (int64, error) {
	img, err := rootio.Synthesize(spec)
	if err != nil {
		return 0, err
	}
	if err := e.Store.Put(path, img); err != nil {
		return 0, err
	}
	return int64(len(img)), nil
}

// OpenHTTP opens the dataset through davix.
func (e *Env) OpenHTTP(ctx context.Context, c *core.Client, path string) (*core.File, error) {
	f, err := c.Open(ctx, HTTPAddr, path)
	if err != nil {
		return nil, fmt.Errorf("bench: open http: %w", err)
	}
	return f, nil
}

// OpenXrd opens the dataset through the xrootd client.
func (e *Env) OpenXrd(ctx context.Context, c *xrootd.Client, path string) (*xrootd.File, error) {
	f, err := c.Open(ctx, path)
	if err != nil {
		return nil, fmt.Errorf("bench: open xrootd: %w", err)
	}
	return f, nil
}
