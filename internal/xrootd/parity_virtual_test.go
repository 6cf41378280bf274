//go:build goexperiment.synctest

package xrootd

import (
	"runtime"
	"testing"
	"testing/synctest"
	"time"

	"godavix/internal/core"
	"godavix/internal/netsim"
)

// The parity job's HTTP duration at netsim.WAN() in virtual time: its
// critical path, from Open's dial to the last event, with every network
// delay exact and no CPU time counted. Goroutine order inside the bubble is
// not fixed, and moves it by about 0.3 ms.
const (
	parityVirtualHTTP = 124022 * time.Microsecond
	parityVirtualBand = 500 * time.Microsecond
)

// TestHTTPXrootdParityVirtual runs the WAN parity job inside a synctest
// bubble, where time advances only while every goroutine waits: HTTP takes
// no longer than xrootd, and its virtual time lies within the band of the
// committed value. Run with GOEXPERIMENT=synctest.
func TestHTTPXrootdParityVirtual(t *testing.T) {
	// One processor runs the bubble's goroutines in a fixed order, so a
	// background fill cannot take a connection a demand read was about
	// to take first.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	img, err := parityImage()
	if err != nil {
		t.Fatal(err)
	}
	synctest.Run(func() {
		b := newParityBed(t, netsim.WAN(), img)
		defer b.close()
		h := b.httpJob(t, func(f *core.File) (parityJob, error) {
			return trainedJob(fileSource(f), parityDepth)
		})
		x := b.xrootdJob(t)
		t.Logf("WAN virtual time: http %v (%d requests), xrootd %v (%d requests)", h.elapsed, h.requests, x.elapsed, x.requests)
		if h.elapsed > x.elapsed {
			t.Errorf("http took %v, xrootd %v: http should take no longer", h.elapsed, x.elapsed)
		}
		if d := h.elapsed - parityVirtualHTTP; d < -parityVirtualBand || d > parityVirtualBand {
			t.Errorf("http took %v, want %v ± %v", h.elapsed, parityVirtualHTTP, parityVirtualBand)
		}
	})
}
