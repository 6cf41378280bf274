package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"godavix/internal/faults"
	"godavix/internal/httpserv"
	"godavix/internal/obs"
	"godavix/internal/rangev"
)

// TestReplicaResolutionTable pins what every read entry point does with
// the replica layer, scenario by scenario: the bytes it returns, how often
// it asks the federation (fed:80) for the Metalink, how many Failovers it
// counts and the class of its error. The federation is asked at most once
// per operation; Open+ReadAt is two operations.
func TestReplicaResolutionTable(t *testing.T) {
	const size, chunk = 128 << 10, 32 << 10
	blob := make([]byte, size)
	rand.New(rand.NewSource(47)).Read(blob)
	// A read between the ends Open keeps, so it goes to the wire.
	const readOff, readLen = 40 << 10, 8 << 10
	vec := []rangev.Range{{Off: 10 << 10, Len: 512}, {Off: 70 << 10, Len: 4096}}
	vecWant := append(append([]byte(nil), blob[10<<10:10<<10+512]...), blob[70<<10:70<<10+4096]...)

	type entry struct {
		name string
		// run performs the operation and returns the bytes it delivered
		// (nil for Stat, which reports the size check instead).
		run  func(ctx context.Context, e *testEnv) ([]byte, error)
		want []byte
	}
	entries := []entry{
		{"Stat", func(ctx context.Context, e *testEnv) ([]byte, error) {
			inf, err := e.client.Stat(ctx, dpm1, "/f")
			if err == nil && inf.Size != size {
				return nil, fmt.Errorf("size %d", inf.Size)
			}
			return nil, err
		}, nil},
		{"Get", func(ctx context.Context, e *testEnv) ([]byte, error) {
			return e.client.Get(ctx, dpm1, "/f")
		}, blob},
		{"Open+ReadAt", func(ctx context.Context, e *testEnv) ([]byte, error) {
			f, err := e.client.Open(ctx, dpm1, "/f")
			if err != nil {
				return nil, err
			}
			defer f.Close()
			buf := make([]byte, readLen)
			_, err = f.ReadAt(buf, readOff)
			return buf, err
		}, blob[readOff : readOff+readLen]},
		{"ReadVec", func(ctx context.Context, e *testEnv) ([]byte, error) {
			dsts := [][]byte{make([]byte, vec[0].Len), make([]byte, vec[1].Len)}
			err := e.client.ReadVec(ctx, dpm1, "/f", vec, dsts)
			return append(dsts[0], dsts[1]...), err
		}, vecWant},
		{"DownloadMultiStreamTo", func(ctx context.Context, e *testEnv) ([]byte, error) {
			w := &bufWriterAt{b: make([]byte, size)}
			_, err := e.client.DownloadMultiStreamTo(ctx, dpm1, "/f", w)
			return w.b, err
		}, blob},
		{"DownloadMultiStream", func(ctx context.Context, e *testEnv) ([]byte, error) {
			return e.client.DownloadMultiStream(ctx, dpm1, "/f")
		}, blob},
		{"CopyStream", func(ctx context.Context, e *testEnv) ([]byte, error) {
			if err := e.client.CopyStream(ctx, dpm1, "/f", "http://dst:80/copy"); err != nil {
				return nil, err
			}
			b, _, err := e.stores["dst:80"].Get("/copy")
			return b, err
		}, blob},
	}

	type scenario struct {
		name string
		// arm breaks the environment before the operation; cancelOnLookup
		// cancels the operation as its Metalink request is written.
		arm            func(e *testEnv)
		cancelOnLookup bool
	}
	scenarios := []scenario{
		{name: "healthy", arm: func(*testEnv) {}},
		{name: "503 primary", arm: func(e *testEnv) {
			e.faults[dpm1].Set("/f", faults.Fault{Status: 503})
		}},
		{name: "breaker-open primary", arm: func(e *testEnv) {
			// Demoted, with no half-open probe during the test, though
			// the server itself is fine.
			e.client.health.threshold, e.client.health.probeAfter = 1, 1<<62
			e.client.health.fail(dpm1, &e.client.metrics)
		}},
		{name: "metalink host down", arm: func(e *testEnv) {
			e.net.SetDown("fed:80", true)
		}},
		{name: "cancel during lookup", cancelOnLookup: true, arm: func(e *testEnv) {
			e.faults[dpm1].Set("/f", faults.Fault{Status: 503})
		}},
	}

	// Each cell: data=<ok|bad|-> fed=<Metalink GETs> failovers=<n> err=<class>.
	want := map[string]map[string]string{
		"healthy": {
			"Stat":                  "data=- fed=0 failovers=0 err=nil",
			"Get":                   "data=ok fed=0 failovers=0 err=nil",
			"Open+ReadAt":           "data=ok fed=0 failovers=0 err=nil",
			"ReadVec":               "data=ok fed=0 failovers=0 err=nil",
			"DownloadMultiStreamTo": "data=ok fed=1 failovers=0 err=nil",
			"DownloadMultiStream":   "data=ok fed=1 failovers=0 err=nil",
			"CopyStream":            "data=ok fed=1 failovers=0 err=nil",
		},
		// The chunk walks of a download start at slot idx of the ring
		// dpm1, dpm2, dpm3: chunks 0 and 3 start on the failing dpm1 and
		// move on. CopyStream's source Stat fails over (one: the HEAD's
		// 503 sends it on, with no PROPFIND to dpm1), then its probe chunk
		// 0 (two) and chunk 3 (three) start on dpm1. That third 503 trips
		// dpm1's breaker (threshold 3) while chunks 1 and 2 may still be
		// starting; they keep the ring the transfer started with, so the
		// count does not depend on which of them starts first.
		"503 primary": {
			"Stat":                  "data=- fed=1 failovers=1 err=nil",
			"Get":                   "data=ok fed=1 failovers=1 err=nil",
			"Open+ReadAt":           "data=ok fed=2 failovers=2 err=nil",
			"ReadVec":               "data=ok fed=1 failovers=1 err=nil",
			"DownloadMultiStreamTo": "data=ok fed=1 failovers=2 err=nil",
			"DownloadMultiStream":   "data=ok fed=1 failovers=2 err=nil",
			"CopyStream":            "data=ok fed=1 failovers=3 err=nil",
		},
		// Health order puts the demoted dpm1 last: only chunk 2's slot holds
		// it, and the breaker skips it.
		"breaker-open primary": {
			"Stat":                  "data=- fed=1 failovers=1 err=nil",
			"Get":                   "data=ok fed=1 failovers=1 err=nil",
			"Open+ReadAt":           "data=ok fed=2 failovers=2 err=nil",
			"ReadVec":               "data=ok fed=1 failovers=1 err=nil",
			"DownloadMultiStreamTo": "data=ok fed=1 failovers=1 err=nil",
			"DownloadMultiStream":   "data=ok fed=1 failovers=1 err=nil",
			"CopyStream":            "data=ok fed=1 failovers=2 err=nil",
		},
		"metalink host down": {
			"Stat":                  "data=- fed=0 failovers=0 err=nil",
			"Get":                   "data=ok fed=0 failovers=0 err=nil",
			"Open+ReadAt":           "data=ok fed=0 failovers=0 err=nil",
			"ReadVec":               "data=ok fed=0 failovers=0 err=nil",
			"DownloadMultiStreamTo": "data=ok fed=0 failovers=0 err=nil",
			"DownloadMultiStream":   "data=- fed=0 failovers=0 err=other",
			"CopyStream":            "data=ok fed=0 failovers=0 err=nil",
		},
		"cancel during lookup": {
			"Stat":                  "data=- fed=1 failovers=0 err=canceled",
			"Get":                   "data=- fed=1 failovers=0 err=canceled",
			"Open+ReadAt":           "data=- fed=1 failovers=0 err=canceled",
			"ReadVec":               "data=- fed=1 failovers=0 err=canceled",
			"DownloadMultiStreamTo": "data=- fed=1 failovers=0 err=canceled",
			"DownloadMultiStream":   "data=- fed=1 failovers=0 err=canceled",
			"CopyStream":            "data=- fed=1 failovers=0 err=canceled",
		},
	}

	for _, sc := range scenarios {
		for _, ent := range entries {
			t.Run(sc.name+"/"+ent.name, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var fedGETs atomic.Int64
				e := replicaEnv(t, Options{
					MetalinkHost: "fed:80",
					ChunkSize:    chunk,
					MaxStreams:   2,
					HedgeDelay:   -1,
					Trace: &obs.ClientTrace{
						// Counted as written, so a request the cancel cuts
						// short still counts as asked.
						Request: func(method, host, path string) {
							if host == "fed:80" && method == "GET" {
								fedGETs.Add(1)
								if sc.cancelOnLookup {
									cancel()
								}
							}
						},
					},
				}, blob)
				e.startServer(t, "dst:80", httpserv.Options{})
				sc.arm(e)

				got, err := ent.run(ctx, e)
				data := "-"
				switch {
				case err != nil || ent.want == nil:
				case bytes.Equal(got, ent.want):
					data = "ok"
				default:
					data = "bad"
				}
				cell := fmt.Sprintf("data=%s fed=%d failovers=%d err=%s",
					data, fedGETs.Load(), e.client.Metrics().Failovers, errClass(err))
				if w := want[sc.name][ent.name]; cell != w {
					t.Errorf("got  %s\nwant %s\n(err: %v)", cell, w, err)
				}
			})
		}
	}
}

// errClass names the class of an operation's error the replica layer
// decides: a cancel, an exhausted ring, one replica's status, or another
// failure.
func errClass(err error) string {
	var se *StatusError
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, ErrAllReplicasFailed):
		return "all failed"
	case errors.As(err, &se):
		return fmt.Sprintf("status %d", se.Code)
	}
	return "other"
}
