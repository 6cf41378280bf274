// Package fed implements a DynaFed-style dynamic storage federation
// (paper §2.4): a front-end that knows a set of storage endpoints, health-
// checks them, and serves Metalink documents listing the live replicas of
// any requested path in priority order. Combined with davix's failover
// engine it guarantees that "a read operation on a resource will succeed
// as long as one replica of this resource is remotely accessible".
package fed

import (
	"context"
	"errors"
	"net/url"
	"path"
	"sort"
	"sync"
	"time"

	"godavix/internal/core"
	"godavix/internal/metalink"
)

// Endpoint is one federated storage server.
type Endpoint struct {
	// Host is the server address ("dpm1:80").
	Host string
	// Prefix is prepended to federated paths on this endpoint
	// (e.g. "/pool1"); empty means the namespace maps 1:1.
	Prefix string
	// Priority orders replicas in generated Metalinks (1 = preferred).
	Priority int
}

// Options tunes the federation.
type Options struct {
	// HealthTTL caches per-endpoint health probes for this long
	// (default 2s; the paper's DynaFed also caches endpoint state).
	HealthTTL time.Duration
}

// probeTimeout bounds each health or stat probe.
const probeTimeout = 2 * time.Second

func (o Options) withDefaults() Options {
	if o.HealthTTL == 0 {
		o.HealthTTL = 2 * time.Second
	}
	return o
}

// Federation aggregates endpoints into a virtual namespace.
type Federation struct {
	client    *core.Client
	endpoints []Endpoint
	opts      Options

	mu     sync.Mutex
	health map[string]healthEntry // host -> last probe
	probes int64
}

type healthEntry struct {
	alive bool
	at    time.Time
}

// New creates a Federation probing endpoints through client, which should
// use core.StrategyNone: a probe is a Stat, and a Stat that failed over
// would answer for an endpoint from another one.
func New(client *core.Client, endpoints []Endpoint, opts Options) *Federation {
	eps := append([]Endpoint(nil), endpoints...)
	sort.SliceStable(eps, func(i, j int) bool { return eps[i].Priority < eps[j].Priority })
	return &Federation{
		client:    client,
		endpoints: eps,
		opts:      opts.withDefaults(),
		health:    make(map[string]healthEntry),
	}
}

// Probes reports how many endpoint probes were issued (tests/benches).
func (f *Federation) Probes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.probes
}

// alive reports whether host responds, using the TTL cache.
func (f *Federation) alive(ctx context.Context, host string) bool {
	f.mu.Lock()
	if e, ok := f.health[host]; ok && time.Since(e.at) < f.opts.HealthTTL {
		f.mu.Unlock()
		return e.alive
	}
	f.probes++
	f.mu.Unlock()

	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	// Probe the namespace root; any HTTP answer (even 404/405) proves the
	// server is up — only transport errors mean dead.
	_, err := f.client.Stat(pctx, host, "/")
	alive := err == nil || !isTransportErr(err)

	f.mu.Lock()
	f.health[host] = healthEntry{alive: alive, at: time.Now()}
	f.mu.Unlock()
	return alive
}

// isTransportErr distinguishes connection-level failures (host dead) from
// HTTP status errors (host alive, resource-level answer).
func isTransportErr(err error) bool {
	var se *core.StatusError
	return !errors.As(err, &se)
}

// MetalinkFor builds the Metalink document for a federated path: every
// live endpoint that actually holds the resource, ordered by priority.
// Returns nil when no live replica holds it (the HTTP front-end then
// answers 404). The signature matches httpserv.MetalinkProvider: p arrives
// decoded ("/store/a b"), so the endpoint path is escaped once, and that
// form is both the probe's request target and the listed location.
func (f *Federation) MetalinkFor(p string) *metalink.Metalink {
	ctx := context.Background()
	ml := &metalink.Metalink{Name: path.Base(p), Size: -1}
	for _, ep := range f.endpoints {
		if !f.alive(ctx, ep.Host) {
			continue
		}
		rp := (&url.URL{Path: ep.Prefix + p}).EscapedPath()
		pctx, cancel := context.WithTimeout(ctx, probeTimeout)
		inf, err := f.client.Stat(pctx, ep.Host, rp)
		cancel()
		if err != nil {
			continue
		}
		if ml.Size < 0 {
			ml.Size = inf.Size
			ml.Checksum = inf.Checksum
		}
		ml.URLs = append(ml.URLs, metalink.URL{
			Loc:      "http://" + ep.Host + rp,
			Priority: ep.Priority,
		})
	}
	if len(ml.URLs) == 0 {
		return nil
	}
	return ml
}
