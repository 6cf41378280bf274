package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"godavix/internal/faults"
	"godavix/internal/httpserv"
	"godavix/internal/obs"
	"godavix/internal/s3"
	"godavix/internal/storage"
	"godavix/internal/wire"
)

// startRecordingServer launches a server that records the Authorization
// header of every request it sees, in arrival order.
func startRecordingServer(t *testing.T, e *testEnv, addr string, opts httpserv.Options) *[]string {
	t.Helper()
	var mu sync.Mutex
	var seen []string
	opts.Authorize = func(a string) bool {
		mu.Lock()
		seen = append(seen, a)
		mu.Unlock()
		return true
	}
	e.startServer(t, addr, opts)
	return &seen
}

// redirectOps are the operations the engine's redirect policies are held
// to: a GET, rebuilt for every hop, and a streaming PUT, whose one-shot body
// rides every hop unread. Each moves body to or from host/path; label is
// its Metrics.Ops key.
var redirectOps = []struct {
	label string
	run   func(ctx context.Context, c *Client, host, path string, body []byte) error
}{
	{"GET", func(ctx context.Context, c *Client, host, path string, body []byte) error {
		got, err := c.Get(ctx, host, path)
		if err == nil && !bytes.Equal(got, body) {
			err = fmt.Errorf("got %q, want %q", got, body)
		}
		return err
	}},
	{"PUT(stream)", func(ctx context.Context, c *Client, host, path string, body []byte) error {
		return c.PutReader(ctx, host, path, bytes.NewBuffer(body), int64(len(body)))
	}},
}

// opEnv is newEnv with a trace that logs every operation's start and done.
func opEnv(t *testing.T, opts Options) (*testEnv, *eventLog) {
	log := &eventLog{}
	opts.Trace = &obs.ClientTrace{
		OpStart: func(op, _, _ string) { log.add("start " + op + ";") },
		OpDone:  func(op, _, _ string, _ time.Duration, _ error) { log.add("done " + op + ";") },
	}
	return newEnv(t, opts), log
}

// checkOneOp asserts that exactly one operation labelled op ran: one
// Metrics.Ops observation, one OpStart and one OpDone.
func checkOneOp(t *testing.T, e *testEnv, log *eventLog, op string) {
	t.Helper()
	if n := e.client.Metrics().Ops[op].Count; n != 1 {
		t.Errorf("Ops[%q].Count = %d, want 1", op, n)
	}
	if s, d := log.count("start "+op+";"), log.count("done "+op+";"); s != 1 || d != 1 {
		t.Errorf("%s: OpStart ×%d, OpDone ×%d, want 1 each", op, s, d)
	}
}

// seed stores body on host for a GET to find; a PUT must bring its own.
func seed(e *testEnv, op, host, path string, body []byte) {
	if op == "GET" {
		e.stores[host].Put(path, body)
	}
}

// TestRedirectCycleAcrossHosts: an A→B→A 302 cycle must fail fast with
// ErrRedirectLoop — one request per distinct target, not the whole hop cap.
func TestRedirectCycleAcrossHosts(t *testing.T) {
	for _, op := range redirectOps {
		t.Run(op.label, func(t *testing.T) {
			e, log := opEnv(t, Options{Strategy: StrategyNone})
			startHeadNode(t, e, "a:80", "b:80")
			startHeadNode(t, e, "b:80", "a:80")

			err := op.run(context.Background(), e.client, "a:80", "/pool/f", []byte("data"))
			if !errors.Is(err, ErrRedirectLoop) {
				t.Fatalf("err = %v, want ErrRedirectLoop", err)
			}
			if got := e.srvs["a:80"].Requests(); got != 1 {
				t.Fatalf("a:80 saw %d requests, want 1", got)
			}
			if got := e.srvs["b:80"].Requests(); got != 1 {
				t.Fatalf("b:80 saw %d requests, want 1", got)
			}
			checkOneOp(t, e, log, op.label)
		})
	}
}

// TestCrossHostRedirectDropsAuthorization: Bearer/Basic credentials belong
// to the host the caller addressed; a redirect hop to a different host (the
// head node bouncing to a neighbouring disk node) must not receive them.
func TestCrossHostRedirectDropsAuthorization(t *testing.T) {
	for _, op := range redirectOps {
		t.Run(op.label, func(t *testing.T) {
			e, log := opEnv(t, Options{
				Strategy: StrategyNone,
				Auth:     &Credentials{Bearer: "wlcg-token-123"},
			})
			diskSeen := startRecordingServer(t, e, "disk1:80", httpserv.Options{})
			headSeen := startRecordingServer(t, e, "head:80", httpserv.Options{
				Redirect: func(method, p string) (string, bool) {
					return "http://disk1:80" + p, true
				},
			})
			seed(e, op.label, "disk1:80", "/pool/f", []byte("data"))

			if err := op.run(context.Background(), e.client, "head:80", "/pool/f", []byte("data")); err != nil {
				t.Fatalf("%s via redirect: %v", op.label, err)
			}
			if got, _, err := e.stores["disk1:80"].Get("/pool/f"); err != nil || string(got) != "data" {
				t.Fatalf("disk store: %q err=%v", got, err)
			}
			if len(*headSeen) != 1 || (*headSeen)[0] != "Bearer wlcg-token-123" {
				t.Fatalf("head node auth = %q, want the bearer token", *headSeen)
			}
			if len(*diskSeen) != 1 || (*diskSeen)[0] != "" {
				t.Fatalf("disk node auth = %q, want empty (credential must not cross hosts)", *diskSeen)
			}
			checkOneOp(t, e, log, op.label)
		})
	}
}

// TestSameHostRedirectKeepsAuthorization: a redirect that stays on the
// original host (path-level bounce) keeps the credentials.
func TestSameHostRedirectKeepsAuthorization(t *testing.T) {
	for _, op := range redirectOps {
		t.Run(op.label, func(t *testing.T) {
			e, log := opEnv(t, Options{
				Strategy: StrategyNone,
				Auth:     &Credentials{Bearer: "tok"},
			})
			seen := startRecordingServer(t, e, "self:80", httpserv.Options{
				Redirect: func(method, p string) (string, bool) {
					if p == "/pool/a" {
						return "http://self:80/pool/b", true
					}
					return "", false
				},
			})
			seed(e, op.label, "self:80", "/pool/b", []byte("data"))

			if err := op.run(context.Background(), e.client, "self:80", "/pool/a", []byte("data")); err != nil {
				t.Fatalf("%s via same-host redirect: %v", op.label, err)
			}
			if got, _, err := e.stores["self:80"].Get("/pool/b"); err != nil || string(got) != "data" {
				t.Fatalf("store: %q err=%v", got, err)
			}
			if len(*seen) != 2 || (*seen)[0] != "Bearer tok" || (*seen)[1] != "Bearer tok" {
				t.Fatalf("auth per hop = %q, want the token on both same-host hops", *seen)
			}
			checkOneOp(t, e, log, op.label)
		})
	}
}

// TestS3ResignsPerRedirectHop: SigV4 signatures cover the Host header, so a
// redirect hop must carry a signature computed for the hop's host — both
// the head node and the disk node verify independently.
func TestS3ResignsPerRedirectHop(t *testing.T) {
	creds := &s3.Credentials{AccessKey: "AKID1", SecretKey: "topsecret"}
	uploads := []struct {
		label string
		run   func(ctx context.Context, c *Client, host, path string, body []byte) error
	}{
		{"PUT", func(ctx context.Context, c *Client, host, path string, body []byte) error {
			return c.Put(ctx, host, path, body)
		}},
		redirectOps[1],
	}
	for _, up := range uploads {
		t.Run(up.label, func(t *testing.T) {
			e, log := opEnv(t, Options{Strategy: StrategyNone, S3: creds})
			e.startServer(t, "disk1:80", httpserv.Options{S3Secrets: s3Secrets})
			st := storage.NewMemStore()
			srv := httpserv.New(st, httpserv.Options{
				S3Secrets: s3Secrets,
				Redirect: func(method, p string) (string, bool) {
					return "http://disk1:80" + p, true
				},
			})
			l, err := e.net.Listen("head:80")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { l.Close() })
			go srv.Serve(l)
			e.srvs["head:80"] = srv

			ctx := context.Background()
			// PUT through the redirect: both hops verify their own-host
			// signature.
			if err := up.run(ctx, e.client, "head:80", "/pool/obj", []byte("signed")); err != nil {
				t.Fatalf("signed %s via redirect: %v", up.label, err)
			}
			checkOneOp(t, e, log, up.label)
			got, err := e.client.Get(ctx, "head:80", "/pool/obj")
			if err != nil || string(got) != "signed" {
				t.Fatalf("signed get via redirect: %q err=%v", got, err)
			}
			// A signature minted for the head node must not verify on the
			// disk node: prove the disk node actually checks by sending it
			// the wrong host's signature directly.
			if _, err := e.client.Get(ctx, "disk1:80", "/pool/obj"); err != nil {
				t.Fatalf("direct signed get: %v", err)
			}
		})
	}
}

// TestRetryPolicyRetriesRetryableStatus: with a retry budget, transient
// 5xx answers are retried with backoff against the same replica until the
// budget runs out or the request succeeds.
func TestRetryPolicyRetriesRetryableStatus(t *testing.T) {
	e := newEnv(t, Options{
		Strategy: StrategyNone,
		Retry: RetryPolicy{
			Attempts:    3,
			BaseBackoff: time.Millisecond,
			Jitter:      func(time.Duration) time.Duration { return 0 },
		},
	})
	e.startServer(t, dpm1, httpserv.Options{})
	e.stores[dpm1].Put("/f", []byte("eventually"))
	e.faults[dpm1].Set("/f", faults.Fault{Status: 503, Remaining: 2})

	got, err := e.client.Get(context.Background(), dpm1, "/f")
	if err != nil || string(got) != "eventually" {
		t.Fatalf("get = %q err=%v", got, err)
	}
	if got := e.faults[dpm1].Requests("GET"); got != 3 {
		t.Fatalf("server saw %d GETs, want 3 (two retries)", got)
	}
	if m := e.client.Metrics(); m.Retries != 2 {
		t.Fatalf("Metrics.Retries = %d, want 2", m.Retries)
	}
}

// TestRetryPolicyBudgetExhausted: the budget bounds the attempts, and the
// final error is the real failure.
func TestRetryPolicyBudgetExhausted(t *testing.T) {
	e := newEnv(t, Options{
		Strategy: StrategyNone,
		Retry: RetryPolicy{
			Attempts:    2,
			BaseBackoff: time.Millisecond,
			Jitter:      func(time.Duration) time.Duration { return 0 },
		},
	})
	e.startServer(t, dpm1, httpserv.Options{})
	e.stores[dpm1].Put("/f", []byte("x"))
	e.faults[dpm1].Set("/f", faults.Fault{Status: 503})

	_, err := e.client.Get(context.Background(), dpm1, "/f")
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 503 {
		t.Fatalf("err = %v, want 503", err)
	}
	if got := e.faults[dpm1].Requests("GET"); got != 2 {
		t.Fatalf("server saw %d GETs, want 2", got)
	}
}

// TestRetryPolicyDefaultNoRetry: the zero-value policy (Attempts
// normalized to 1) reproduces the seed's no-retry semantics exactly.
func TestRetryPolicyDefaultNoRetry(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone})
	e.startServer(t, dpm1, httpserv.Options{})
	e.stores[dpm1].Put("/f", []byte("x"))
	e.faults[dpm1].Set("/f", faults.Fault{Status: 503, Remaining: 1})

	if _, err := e.client.Get(context.Background(), dpm1, "/f"); err == nil {
		t.Fatal("expected 503 to surface without retries")
	}
	if got := e.faults[dpm1].Requests("GET"); got != 1 {
		t.Fatalf("server saw %d GETs, want 1 (no retry at default settings)", got)
	}
	if m := e.client.Metrics(); m.Retries != 0 {
		t.Fatalf("Metrics.Retries = %d, want 0", m.Retries)
	}
}

// TestRetryPolicyNoRetryOnSemanticFailure: 404s are deterministic; no
// budget may be spent on them.
func TestRetryPolicyNoRetryOnSemanticFailure(t *testing.T) {
	e := newEnv(t, Options{
		Strategy: StrategyNone,
		Retry: RetryPolicy{
			Attempts:    5,
			BaseBackoff: time.Millisecond,
			Jitter:      func(time.Duration) time.Duration { return 0 },
		},
	})
	e.startServer(t, dpm1, httpserv.Options{})

	if _, err := e.client.Get(context.Background(), dpm1, "/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if got := e.srvs[dpm1].RequestsByMethod("GET"); got != 1 {
		t.Fatalf("server saw %d GETs for a 404, want 1", got)
	}
}

// TestRetryBackoffSequence: the exponential schedule doubles from
// BaseBackoff and clamps at CapBackoff; the injected jitter sees exactly
// that deterministic sequence.
func TestRetryBackoffSequence(t *testing.T) {
	var mu sync.Mutex
	var seen []time.Duration
	e := newEnv(t, Options{
		Strategy: StrategyNone,
		Retry: RetryPolicy{
			Attempts:    4,
			BaseBackoff: 10 * time.Millisecond,
			CapBackoff:  25 * time.Millisecond,
			Jitter: func(d time.Duration) time.Duration {
				mu.Lock()
				seen = append(seen, d)
				mu.Unlock()
				return 0 // deterministic and instant for the test
			},
		},
	})
	e.startServer(t, dpm1, httpserv.Options{})
	e.stores[dpm1].Put("/f", []byte("x"))
	e.faults[dpm1].Set("/f", faults.Fault{Status: 502, Remaining: 3})

	if _, err := e.client.Get(context.Background(), dpm1, "/f"); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 25 * time.Millisecond}
	if len(seen) != len(want) {
		t.Fatalf("jitter saw %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("backoff %d = %v, want %v", i, seen[i], want[i])
		}
	}
}

// TestOptionsNormalization: New validates and normalizes every Options
// field once, so nonsense values never reach the hot path.
func TestOptionsNormalization(t *testing.T) {
	cases := []struct {
		name  string
		in    Options
		check func(t *testing.T, o Options)
	}{
		{"zero value gets documented defaults", Options{}, func(t *testing.T, o Options) {
			if o.MaxRangesPerRequest != 256 || o.MaxStreams != 4 {
				t.Errorf("defaults = ranges %d streams %d", o.MaxRangesPerRequest, o.MaxStreams)
			}
			if o.ChunkSize != 1<<20 {
				t.Errorf("chunk %d", o.ChunkSize)
			}
			if o.Retry.Attempts != 1 {
				t.Errorf("Retry.Attempts = %d, want 1 (no retries)", o.Retry.Attempts)
			}
		}},
		{"negative sizes and counts collapse to defaults", Options{
			MaxRangesPerRequest: -7, MaxStreams: -2, ChunkSize: -64,
			CoalesceGap: -5, RequestTimeout: -time.Second,
		}, func(t *testing.T, o Options) {
			if o.MaxRangesPerRequest != 256 || o.MaxStreams != 4 || o.ChunkSize != 1<<20 {
				t.Errorf("negatives not normalized: %+v", o)
			}
			if o.CoalesceGap != 0 || o.RequestTimeout != 0 {
				t.Errorf("gap %d timeout %v", o.CoalesceGap, o.RequestTimeout)
			}
		}},
		{"negative parallelism means derive from pool", Options{
			VectorParallelism: -3, WalkParallelism: -1, UploadParallelism: -9,
		}, func(t *testing.T, o Options) {
			if o.VectorParallelism != 0 || o.WalkParallelism != 0 || o.UploadParallelism != 0 {
				t.Errorf("parallelism = %d/%d/%d, want 0/0/0", o.VectorParallelism, o.WalkParallelism, o.UploadParallelism)
			}
		}},
		{"zero retry fields get documented defaults", Options{
			Retry: RetryPolicy{Attempts: 4},
		}, func(t *testing.T, o Options) {
			if o.Retry.BaseBackoff != 50*time.Millisecond || o.Retry.CapBackoff != 2*time.Second {
				t.Errorf("backoff = %v/%v", o.Retry.BaseBackoff, o.Retry.CapBackoff)
			}
		}},
		{"cap below base is raised to base", Options{
			Retry: RetryPolicy{Attempts: 2, BaseBackoff: time.Second, CapBackoff: time.Millisecond},
		}, func(t *testing.T, o Options) {
			if o.Retry.CapBackoff != time.Second {
				t.Errorf("cap = %v, want raised to base", o.Retry.CapBackoff)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.check(t, tc.in.withDefaults())
		})
	}
}

// TestMetricsCounters: one redirected read and one failed-over read leave
// the exact engine trail in the snapshot.
func TestMetricsCounters(t *testing.T) {
	e := newEnv(t, Options{MetalinkHost: "fed:80"})
	e.startServer(t, "disk1:80", httpserv.Options{})
	startHeadNode(t, e, "head:80", "disk1:80")
	e.stores["disk1:80"].Put("/pool/f", []byte("payload"))

	e.startServer(t, dpm1, httpserv.Options{})
	e.startServer(t, "dpm2:80", httpserv.Options{})
	e.stores["dpm2:80"].Put("/r", []byte("replica"))
	e.startServer(t, "fed:80", httpserv.Options{Metalinks: mlFor("http://dpm2:80/r")})
	e.net.SetDown(dpm1, true)

	ctx := context.Background()
	if _, err := e.client.Get(ctx, "head:80", "/pool/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.client.Get(ctx, dpm1, "/r"); err != nil {
		t.Fatal(err)
	}

	m := e.client.Metrics()
	if m.Redirects != 1 {
		t.Fatalf("Redirects = %d, want 1", m.Redirects)
	}
	if m.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1", m.Failovers)
	}
	if m.Requests < 4 {
		t.Fatalf("Requests = %d, want >= 4", m.Requests)
	}
	if m.BytesUp <= 0 || m.BytesDown <= 0 {
		t.Fatalf("bytes = up %d down %d, want > 0", m.BytesUp, m.BytesDown)
	}
	op, ok := m.Ops["GET"]
	if !ok || op.Count != 2 {
		t.Fatalf("Ops[GET] = %+v, want Count 2", op)
	}
	if op.P50 <= 0 || op.P99 < op.P50 {
		t.Fatalf("quantiles = P50 %v P99 %v", op.P50, op.P99)
	}
}

// TestMetricsConcurrentSnapshots: snapshots race against live traffic;
// run under -race this proves Metrics() never needs a lock.
func TestMetricsConcurrentSnapshots(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone})
	e.startServer(t, dpm1, httpserv.Options{})
	blob := bytes.Repeat([]byte("m"), 8<<10)
	e.stores[dpm1].Put("/f", blob)
	ctx := context.Background()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if g%2 == 0 {
					if _, err := e.client.Get(ctx, dpm1, "/f"); err != nil {
						t.Error(err)
						return
					}
				} else if _, err := e.client.GetRange(ctx, dpm1, "/f", int64(i)*16, 16); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m := e.client.Metrics()
				if m.Requests < 0 || m.BytesDown < 0 {
					t.Error("impossible snapshot")
					return
				}
			}
		}()
	}
	wg.Wait()

	m := e.client.Metrics()
	if m.Requests != 160 {
		t.Fatalf("Requests = %d, want 160", m.Requests)
	}
	if got := m.Ops["GET"].Count + m.Ops["GET(range)"].Count; got != 160 {
		t.Fatalf("op counts = %d, want 160", got)
	}
}

// TestHealthScoreboardDemotesAndReprobes: a flapping replica is demoted
// after the board's threshold of consecutive failures (ops stop paying its
// latency), then re-admitted by a half-open probe once it recovers.
func TestHealthScoreboardDemotesAndReprobes(t *testing.T) {
	e := newEnv(t, Options{MetalinkHost: "fed:80"})
	e.client.health.threshold, e.client.health.probeAfter = 2, 50*time.Millisecond
	e.startServer(t, dpm1, httpserv.Options{})
	e.startServer(t, "dpm2:80", httpserv.Options{})
	blob := []byte("replicated")
	e.stores[dpm1].Put("/f", blob)
	e.stores["dpm2:80"].Put("/f", blob)
	e.startServer(t, "fed:80", httpserv.Options{Metalinks: mlFor("http://dpm1:80/f", "http://dpm2:80/f")})

	// The primary answers everything with 503 until further notice.
	e.faults[dpm1].Set("/f", faults.Fault{Status: 503})

	ctx := context.Background()
	for i := 0; i < 5; i++ {
		got, err := e.client.GetRange(ctx, dpm1, "/f", 0, 4)
		if err != nil || !bytes.Equal(got, blob[:4]) {
			t.Fatalf("read %d: %q err=%v", i, got, err)
		}
	}
	// Reads 1-2 paid the sick primary and tripped the breaker; reads 3-5
	// must not have touched it at all.
	if got := e.faults[dpm1].Requests("GET"); got != 2 {
		t.Fatalf("primary saw %d GETs, want 2 (demoted after threshold)", got)
	}
	if m := e.client.Metrics(); m.BreakerTrips != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", m.BreakerTrips)
	}

	// The primary recovers; after the cooldown one half-open probe
	// re-admits it.
	e.faults[dpm1].Clear("/f")
	time.Sleep(60 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if _, err := e.client.GetRange(ctx, dpm1, "/f", 0, 4); err != nil {
			t.Fatalf("post-recovery read %d: %v", i, err)
		}
	}
	if got := e.faults[dpm1].Requests("GET"); got != 4 {
		t.Fatalf("primary saw %d GETs after recovery, want 4 (probe + closed breaker)", got)
	}
	if m := e.client.Metrics(); m.BreakerTrips != 1 {
		t.Fatalf("BreakerTrips after recovery = %d, want still 1", m.BreakerTrips)
	}
}

// TestChunkRingSkipsDemotedReplica: multi-stream downloads across a sick
// replica send it no chunk once the scoreboard demotes it — one dead disk
// node must not cost every chunk a failed round trip. The first download's
// size probe (a HEAD, whose 503 sends it to the next replica) trips the
// breaker before any chunk; the second download, whose chunk reads have
// armed the auto hedge budget, must send the demoted replica nothing
// either, through the serial ring walk or the hedged path.
func TestChunkRingSkipsDemotedReplica(t *testing.T) {
	t.Run("scoreboard", func(t *testing.T) {
		e := newEnv(t, Options{
			MetalinkHost: "fed:80",
			ChunkSize:    512,
			MaxStreams:   2,
		})
		e.client.health.threshold, e.client.health.probeAfter = 1, time.Minute
		blob := bytes.Repeat([]byte("chunky!!"), 4<<10) // 32 KiB -> 64 chunks
		for _, r := range []string{"dpm1:80", "dpm2:80"} {
			e.startServer(t, r, httpserv.Options{})
			e.stores[r].Put("/f", blob)
		}
		e.startServer(t, "fed:80", httpserv.Options{
			Metalinks: mlFor("http://dpm1:80/f", "http://dpm2:80/f"),
		})
		// dpm1 rejects every data request.
		e.faults[dpm1].Set("/f", faults.Fault{Status: 503})

		for i := 1; i <= 2; i++ {
			got, err := e.client.DownloadMultiStream(context.Background(), dpm1, "/f")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, blob) {
				t.Fatalf("download %d: content mismatch", i)
			}
			if gets := e.faults[dpm1].Requests("GET"); gets != 0 {
				t.Errorf("download %d: sick replica saw %d GETs, want 0", i, gets)
			}
		}
		if trips := e.client.Metrics().BreakerTrips; trips != 1 {
			t.Errorf("BreakerTrips = %d, want 1", trips)
		}
	})
}

// TestAbortHookHoldsItsConnection: an exchange's cancellation hook may
// still be running after Response.Close returns (stop reports only that it
// has started), so it holds the connection it was armed for and never
// reads the Response, which its handler may drop or reuse once it returns.
// Each round cancels a chunk read's ctx as its body read completes, closes
// the response, then wipes it as a later exchange reusing it would; the
// exchanges after it on the same client must all succeed. Under -race, a
// hook that reads the wiped field is a data race; without it, a nil
// dereference.
func TestAbortHookHoldsItsConnection(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone})
	e.startServer(t, dpm1, httpserv.Options{})
	blob := bytes.Repeat([]byte("abort!"), 1<<10)
	e.stores[dpm1].Put("/f", blob)
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		err := e.client.exec(ctx, dpm1, "/f", specChunk, func(h, p string) *wire.Request {
			return wire.NewRequest("GET", h, p)
		}, func(_ Replica, resp *Response) error {
			_, err := io.Copy(io.Discard, resp.Body)
			cancel()
			resp.Close()
			*resp = Response{}
			return err
		})
		cancel()
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if got, err := e.client.Get(context.Background(), dpm1, "/f"); err != nil || !bytes.Equal(got, blob) {
			t.Fatalf("round %d: Get after a cancelled chunk: err=%v, %d bytes", i, err, len(got))
		}
	}
}

// TestCancelDuringRingWalkReportsCancel: a download cancelled while a chunk
// is failing over reports the cancellation, not ErrAllReplicasFailed — the
// walk stops at the cancel, and the replica it never tried did not fail.
func TestCancelDuringRingWalkReportsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The metalink states the size, so the download is its one chunk and
	// no size probe.
	e := replicaEnv(t, Options{
		MetalinkHost: "fed:80",
		HedgeDelay:   -1,
		Trace: &obs.ClientTrace{
			OpDone: func(op, host, path string, d time.Duration, err error) {
				if host == dpm1 && err != nil {
					cancel() // as dpm1's 503 lands
				}
			},
		},
	}, bytes.Repeat([]byte("x"), 4096))
	e.faults[dpm1].Set("/f", faults.Fault{Status: 503})

	_, err := e.client.DownloadMultiStream(ctx, dpm1, "/f")
	if !errors.Is(err, context.Canceled) || errors.Is(err, ErrAllReplicasFailed) {
		t.Fatalf("err = %v, want context.Canceled and not ErrAllReplicasFailed", err)
	}
	for _, r := range fedReplicas[1:] {
		if gets := e.faults[r].Requests("GET"); gets != 0 {
			t.Fatalf("healthy replica %s saw %d GETs after the cancel, want 0", r, gets)
		}
	}
}

// TestCancelDuringFailoverReportsCancel: a read cancelled while its
// failover asks the federation for replicas reports the cancellation, not
// the primary's 503 alone — the lookup never finished, so no replica was
// ever tried.
func TestCancelDuringFailoverReportsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := replicaEnv(t, Options{
		MetalinkHost: "fed:80",
		Trace: &obs.ClientTrace{
			Request: func(method, host, path string) {
				if host == "fed:80" {
					cancel() // as the metalink request is written
				}
			},
		},
	}, []byte("replicated"))
	e.faults[dpm1].Set("/f", faults.Fault{Status: 503})

	_, err := e.client.GetRange(ctx, dpm1, "/f", 0, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, r := range fedReplicas[1:] {
		if gets := e.faults[r].Requests("GET"); gets != 0 {
			t.Fatalf("replica %s saw %d GETs after the cancel, want 0", r, gets)
		}
	}
}

// TestBreakerSkippedPrimaryStillLastResort: when the breaker has demoted
// the primary and no other replica can serve, the engine must still try
// the primary rather than fail outright.
func TestBreakerSkippedPrimaryStillLastResort(t *testing.T) {
	e := newEnv(t, Options{MetalinkHost: "fed:80"})
	// No half-open window during the test.
	e.client.health.threshold, e.client.health.probeAfter = 1, time.Hour
	e.startServer(t, dpm1, httpserv.Options{})
	e.stores[dpm1].Put("/f", []byte("solo"))
	e.startServer(t, "fed:80", httpserv.Options{Metalinks: mlFor("http://dpm1:80/f")})

	ctx := context.Background()
	// Trip the breaker with one failing read.
	e.faults[dpm1].Set("/f", faults.Fault{Status: 503, Remaining: 1})
	if _, err := e.client.GetRange(ctx, dpm1, "/f", 0, 4); err == nil {
		t.Fatal("expected the tripping read to fail")
	}
	// The primary is demoted but it is the only replica: the next read
	// must go through (and close the breaker again).
	got, err := e.client.GetRange(ctx, dpm1, "/f", 0, 4)
	if err != nil || string(got) != "solo" {
		t.Fatalf("last-resort read = %q err=%v", got, err)
	}
}

// TestMetalinkReplicaOrderPrefersHealthy: order() moves demoted hosts
// behind healthy ones without dropping or reordering within a class.
func TestMetalinkReplicaOrderPrefersHealthy(t *testing.T) {
	b := newHealthBoard()
	b.threshold, b.probeAfter = 1, time.Hour
	var m metrics
	b.fail("b:80", &m)
	reps := []Replica{{Host: "a:80", Path: "/f"}, {Host: "b:80", Path: "/f"}, {Host: "c:80", Path: "/f"}}
	got := b.order(reps)
	want := []Replica{{Host: "a:80", Path: "/f"}, {Host: "c:80", Path: "/f"}, {Host: "b:80", Path: "/f"}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if m.breakerTrips.Load() != 1 {
		t.Fatalf("trips = %d", m.breakerTrips.Load())
	}
	// Healthy again: original order restored.
	b.ok("b:80")
	if fmt.Sprint(b.order(reps)) != fmt.Sprint(reps) {
		t.Fatalf("order after recovery = %v, want original", b.order(reps))
	}
}
