package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"godavix/internal/faults"
	"godavix/internal/obs"
)

func TestHedgeStandbySelection(t *testing.T) {
	ring := []Replica{
		{Host: "a:80", Path: "/1"},
		{Host: "a:80", Path: "/2"}, // alternate path on the primary's host
		{Host: "b:80", Path: "/3"},
		{Host: "c:80", Path: "/4"},
	}
	b := newHealthBoard()
	b.threshold, b.probeAfter = 1, time.Hour
	pair := func(ring []Replica, idx int) string {
		p, s, ok := b.hedgePair(ring, idx)
		return fmt.Sprintf("%s %s %v", p.Host, s.Host, ok)
	}
	if got := pair(ring, 0); got != "a:80 b:80 true" {
		t.Fatalf("pair = %q, want a:80 b:80 (same-host replicas skipped)", got)
	}
	// Ring of one host: nothing worth racing.
	if got := pair(ring[:2], 0); got != "a:80  false" {
		t.Fatalf("single-host ring: pair = %q, want no standby", got)
	}
	// A demoted host is never a leg: the standby moves on to c, and a
	// demoted primary leaves the chunk to the serial walk.
	var m metrics
	b.fail("b:80", &m)
	if got := pair(ring, 0); got != "a:80 c:80 true" {
		t.Fatalf("b demoted: pair = %q, want a:80 c:80", got)
	}
	if got := pair(ring, 2); got != "b:80  false" {
		t.Fatalf("b demoted: pair at its slot = %q, want no hedge", got)
	}
	b.fail("c:80", &m)
	if got := pair(ring, 0); got != "a:80  false" {
		t.Fatalf("b and c demoted: pair = %q, want no healthy standby", got)
	}
}

func TestHedgeBudgetModes(t *testing.T) {
	c := newEnv(t, Options{HedgeDelay: -1}).client
	if _, ok := c.hedgeBudget(); ok {
		t.Fatal("negative HedgeDelay must disable hedging")
	}

	c2 := newEnv(t, Options{HedgeDelay: 25 * time.Millisecond}).client
	if d, ok := c2.hedgeBudget(); !ok || d != 25*time.Millisecond {
		t.Fatalf("fixed budget = %v ok=%v, want 25ms", d, ok)
	}

	// Auto mode: disabled on a cold histogram, live P99 once it holds
	// hedgeMinSamples observations.
	c3 := newEnv(t, Options{}).client
	if _, ok := c3.hedgeBudget(); ok {
		t.Fatal("auto budget must stay off until the chunk histogram warms up")
	}
	for i := 0; i < hedgeMinSamples; i++ {
		c3.metrics.observe(specChunk.op, 2*time.Millisecond)
	}
	d, ok := c3.hedgeBudget()
	if !ok || d <= 0 {
		t.Fatalf("auto budget = %v ok=%v, want live P99 > 0", d, ok)
	}
}

func TestHedgedReadBeatsSlowReplica(t *testing.T) {
	const size, cs = 128 << 10, 4 << 10
	blob := make([]byte, size)
	rand.New(rand.NewSource(41)).Read(blob)
	var mu sync.Mutex
	issued := map[int]bool{}
	settled := map[int]string{}
	e := replicaEnv(t, Options{
		MetalinkHost: "fed:80",
		ChunkSize:    cs,
		MaxStreams:   4,
		HedgeDelay:   20 * time.Millisecond,
		Trace: &obs.ClientTrace{
			HedgeIssued: func(path string, idx int, off, length int64, toHost string) {
				mu.Lock()
				defer mu.Unlock()
				issued[idx] = true
			},
			HedgeSettled: func(path string, idx int, hedgeWon bool, wasted int64) {
				mu.Lock()
				defer mu.Unlock()
				settled[idx] = fmt.Sprintf("won=%v wasted=%d", hedgeWon, wasted)
			},
		},
	}, blob)
	// dpm2 answers, after an hour: the failure mode the health scoreboard
	// cannot see, since nothing fails. The delay ends when the request is
	// abandoned, so a chunk whose ring primary is dpm2 completes only if
	// its hedge wins, and the ctx deadline turns a missing hedge into a
	// failure instead of a hang.
	e.faults["dpm2:80"].Set("/f", faults.Fault{Delay: time.Hour, Remaining: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	got, err := e.client.DownloadMultiStream(ctx, "dpm1:80", "/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("hedged download corrupted content")
	}
	mu.Lock()
	defer mu.Unlock()
	// A healthy chunk may also outlive the budget on a loaded machine and
	// be hedged, so only the slow-primary chunks are pinned exactly: the
	// slow leg never sent a byte, so its loss wastes nothing.
	for idx := 0; idx < size/cs; idx++ {
		if fedReplicas[idx%len(fedReplicas)] != "dpm2:80" {
			continue
		}
		if !issued[idx] || settled[idx] != "won=true wasted=0" {
			t.Errorf("chunk %d (ring primary dpm2): hedge issued=%v, settled %q, want issued and \"won=true wasted=0\"",
				idx, issued[idx], settled[idx])
		}
	}
	if m := e.client.Metrics(); m.HedgeWastedBytes > size/10 {
		t.Errorf("hedge duplicate traffic %d B exceeds 10%% of the %d B payload", m.HedgeWastedBytes, size)
	}
}

func TestHedgeDisabledIssuesNone(t *testing.T) {
	blob := make([]byte, 32<<10)
	rand.New(rand.NewSource(43)).Read(blob)
	e := replicaEnv(t, Options{
		MetalinkHost: "fed:80",
		ChunkSize:    8 << 10,
		MaxStreams:   4,
		HedgeDelay:   -1,
	}, blob)
	e.faults["dpm2:80"].Set("/f", faults.Fault{Delay: 30 * time.Millisecond, Remaining: -1})

	got, err := e.client.DownloadMultiStream(context.Background(), "dpm1:80", "/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("content mismatch")
	}
	if m := e.client.Metrics(); m.HedgesIssued != 0 {
		t.Fatalf("hedges issued = %d with hedging disabled", m.HedgesIssued)
	}
}
