package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"godavix/internal/faults"
	"godavix/internal/httpserv"
	"godavix/internal/obs"
	"godavix/internal/rangev"
)

// TestReplicaResolutionTable pins what every read entry point does with
// the replica layer, scenario by scenario: the bytes it returns, how many
// Failovers it counts and the class of its error. What each cell sends,
// the federation's Metalink GETs included, is its wire transcript
// (TestWireTranscripts, testdata/wire/replica_*.txt).
func TestReplicaResolutionTable(t *testing.T) {
	// Each cell: data=<ok|bad|-> failovers=<n> err=<class>.
	want := map[string]map[string]string{
		"healthy": {
			"Stat":                  "data=- failovers=0 err=nil",
			"Get":                   "data=ok failovers=0 err=nil",
			"Open+ReadAt":           "data=ok failovers=0 err=nil",
			"ReadVec":               "data=ok failovers=0 err=nil",
			"DownloadMultiStreamTo": "data=ok failovers=0 err=nil",
			"DownloadMultiStream":   "data=ok failovers=0 err=nil",
			"CopyStream":            "data=ok failovers=0 err=nil",
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
			"Stat":                  "data=- failovers=1 err=nil",
			"Get":                   "data=ok failovers=1 err=nil",
			"Open+ReadAt":           "data=ok failovers=2 err=nil",
			"ReadVec":               "data=ok failovers=1 err=nil",
			"DownloadMultiStreamTo": "data=ok failovers=2 err=nil",
			"DownloadMultiStream":   "data=ok failovers=2 err=nil",
			"CopyStream":            "data=ok failovers=3 err=nil",
		},
		// Health order puts the demoted dpm1 last: only chunk 2's slot holds
		// it, and the breaker skips it.
		"breaker-open primary": {
			"Stat":                  "data=- failovers=1 err=nil",
			"Get":                   "data=ok failovers=1 err=nil",
			"Open+ReadAt":           "data=ok failovers=2 err=nil",
			"ReadVec":               "data=ok failovers=1 err=nil",
			"DownloadMultiStreamTo": "data=ok failovers=1 err=nil",
			"DownloadMultiStream":   "data=ok failovers=1 err=nil",
			"CopyStream":            "data=ok failovers=2 err=nil",
		},
		"metalink host down": {
			"Stat":                  "data=- failovers=0 err=nil",
			"Get":                   "data=ok failovers=0 err=nil",
			"Open+ReadAt":           "data=ok failovers=0 err=nil",
			"ReadVec":               "data=ok failovers=0 err=nil",
			"DownloadMultiStreamTo": "data=ok failovers=0 err=nil",
			"DownloadMultiStream":   "data=- failovers=0 err=other",
			"CopyStream":            "data=ok failovers=0 err=nil",
		},
		"cancel during lookup": {
			"Stat":                  "data=- failovers=0 err=canceled",
			"Get":                   "data=- failovers=0 err=canceled",
			"Open+ReadAt":           "data=- failovers=0 err=canceled",
			"ReadVec":               "data=- failovers=0 err=canceled",
			"DownloadMultiStreamTo": "data=- failovers=0 err=canceled",
			"DownloadMultiStream":   "data=- failovers=0 err=canceled",
			"CopyStream":            "data=- failovers=0 err=canceled",
		},
	}
	for _, sc := range replicaScenarios {
		for _, ent := range replicaEntries {
			t.Run(sc.name+"/"+ent.name, func(t *testing.T) {
				cell, _, err := runReplicaCell(t, sc, ent)
				if w := want[sc.name][ent.name]; cell != w {
					t.Errorf("got  %s\nwant %s\n(err: %v)", cell, w, err)
				}
			})
		}
	}
}

// The replica table's object: /f on each of replicaEnv's three replicas,
// read in chunks of replicaChunk.
const replicaSize, replicaChunk = 128 << 10, 32 << 10

var replicaBlob = func() []byte {
	b := make([]byte, replicaSize)
	rand.New(rand.NewSource(47)).Read(b)
	return b
}()

// A read between the ends Open keeps, so it goes to the wire, and a
// vectored read of two fragments.
const replicaReadOff, replicaReadLen = 40 << 10, 8 << 10

var replicaVec = []rangev.Range{{Off: 10 << 10, Len: 512}, {Off: 70 << 10, Len: 4096}}

// replicaEntry is one read entry point of the replica table. run performs
// the operation and returns the bytes it delivered (nil for Stat, which
// reports the size check instead).
type replicaEntry struct {
	name string
	run  func(ctx context.Context, e *testEnv) ([]byte, error)
	want []byte
}

var replicaEntries = []replicaEntry{
	{"Stat", func(ctx context.Context, e *testEnv) ([]byte, error) {
		inf, err := e.client.Stat(ctx, dpm1, "/f")
		if err == nil && inf.Size != replicaSize {
			return nil, fmt.Errorf("size %d", inf.Size)
		}
		return nil, err
	}, nil},
	{"Get", func(ctx context.Context, e *testEnv) ([]byte, error) {
		return e.client.Get(ctx, dpm1, "/f")
	}, replicaBlob},
	{"Open+ReadAt", func(ctx context.Context, e *testEnv) ([]byte, error) {
		f, err := e.client.Open(ctx, dpm1, "/f")
		if err != nil {
			return nil, err
		}
		defer f.Close()
		buf := make([]byte, replicaReadLen)
		_, err = f.ReadAt(buf, replicaReadOff)
		return buf, err
	}, replicaBlob[replicaReadOff : replicaReadOff+replicaReadLen]},
	{"ReadVec", func(ctx context.Context, e *testEnv) ([]byte, error) {
		dsts := [][]byte{make([]byte, replicaVec[0].Len), make([]byte, replicaVec[1].Len)}
		err := e.client.ReadVec(ctx, dpm1, "/f", replicaVec, dsts)
		return append(dsts[0], dsts[1]...), err
	}, append(bytes.Clone(replicaBlob[10<<10:10<<10+512]), replicaBlob[70<<10:70<<10+4096]...)},
	{"DownloadMultiStreamTo", func(ctx context.Context, e *testEnv) ([]byte, error) {
		w := &bufWriterAt{b: make([]byte, replicaSize)}
		_, err := e.client.DownloadMultiStreamTo(ctx, dpm1, "/f", w)
		return w.b, err
	}, replicaBlob},
	{"DownloadMultiStream", func(ctx context.Context, e *testEnv) ([]byte, error) {
		return e.client.DownloadMultiStream(ctx, dpm1, "/f")
	}, replicaBlob},
	{"CopyStream", func(ctx context.Context, e *testEnv) ([]byte, error) {
		if err := e.client.CopyStream(ctx, dpm1, "/f", "http://dst:80/copy"); err != nil {
			return nil, err
		}
		b, _, err := e.stores["dst:80"].Get("/copy")
		return b, err
	}, replicaBlob},
}

// replicaScenario breaks the environment before the operation (arm);
// cancelOnLookup cancels the operation once its Metalink request has
// reached the federation, which holds it.
type replicaScenario struct {
	name           string
	arm            func(e *testEnv)
	cancelOnLookup bool
}

var replicaScenarios = []replicaScenario{
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
		e.faults["fed:80"].Set("*", faults.Fault{Delay: time.Hour})
	}},
}

// runReplicaCell runs ent under sc in an environment of its own and
// returns the table cell, the operation's wire transcript and its error.
// A cancelled operation sends nothing after the cancel.
func runReplicaCell(t *testing.T, sc replicaScenario, ent replicaEntry) (cell string, wire []string, err error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var e *testEnv
	e = replicaEnv(t, Options{
		MetalinkHost: "fed:80",
		ChunkSize:    replicaChunk,
		HedgeDelay:   -1,
		Trace: &obs.ClientTrace{
			Request: func(method, host, path string) {
				if !sc.cancelOnLookup || host != "fed:80" || method != "GET" {
					return
				}
				// Cancelled only once the lookup has arrived, so it is on
				// the wire however the goroutines run.
				go func() {
					for e.faults["fed:80"].Requests("GET") == 0 && ctx.Err() == nil {
						time.Sleep(time.Millisecond)
					}
					cancel()
				}()
			},
		},
	}, replicaBlob)
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
	cell = fmt.Sprintf("data=%s failovers=%d err=%s", data, e.client.Metrics().Failovers, errClass(err))

	// Which of CopyStream's four chunk PUTs completes the copy, and is
	// answered 201 rather than 202, depends on timing; the healthy
	// transcript holds that side.
	delete(e.faults, "dst:80")
	return cell, newWireLog().take(t, e, ent.name, nil), err
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
