package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net/http"
	"testing"

	"godavix/internal/faults"
	"godavix/internal/httpserv"
	"godavix/internal/metalink"
	"godavix/internal/rangev"
	"godavix/internal/storage"
)

// startHeadNode brings up a DPM-style head node that redirects data
// operations for /pool/* to the given disk node.
func startHeadNode(t *testing.T, e *testEnv, addr, diskAddr string) {
	t.Helper()
	st := storage.NewMemStore()
	srv := httpserv.New(st, httpserv.Options{
		Redirect: func(method, p string) (string, bool) {
			return "http://" + diskAddr + p, true
		},
	})
	l, err := e.net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go srv.Serve(l)
	e.stores[addr] = st
	e.srvs[addr] = srv
}

func TestRedirectFollowedForGet(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone})
	e.startServer(t, "disk1:80", httpserv.Options{})
	startHeadNode(t, e, "head:80", "disk1:80")
	e.stores["disk1:80"].Put("/pool/f", []byte("disk node data"))

	ctx := context.Background()
	got, err := e.client.Get(ctx, "head:80", "/pool/f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "disk node data" {
		t.Fatalf("got %q", got)
	}
	// The head node served only the redirect; the disk node served data.
	if e.srvs["disk1:80"].RequestsByMethod("GET") != 1 {
		t.Fatal("disk node did not serve the GET")
	}
}

func TestRedirectFollowedForPutAndRanges(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone})
	e.startServer(t, "disk1:80", httpserv.Options{})
	startHeadNode(t, e, "head:80", "disk1:80")
	ctx := context.Background()

	if err := e.client.Put(ctx, "head:80", "/pool/obj", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	// Data must have landed on the disk node.
	got, _, err := e.stores["disk1:80"].Get("/pool/obj")
	if err != nil || string(got) != "0123456789" {
		t.Fatalf("disk store: %q err=%v", got, err)
	}

	part, err := e.client.GetRange(ctx, "head:80", "/pool/obj", 2, 4)
	if err != nil || string(part) != "2345" {
		t.Fatalf("range via redirect = %q err=%v", part, err)
	}

	// Vectored read through the redirecting head node.
	ranges := []rangev.Range{{Off: 0, Len: 2}, {Off: 8, Len: 2}}
	dsts := [][]byte{make([]byte, 2), make([]byte, 2)}
	if err := e.client.ReadVec(ctx, "head:80", "/pool/obj", ranges, dsts); err != nil {
		t.Fatal(err)
	}
	if string(dsts[0]) != "01" || string(dsts[1]) != "89" {
		t.Fatalf("vectored via redirect = %q %q", dsts[0], dsts[1])
	}
}

// TestRedirectLoopDetected: a head node redirecting to itself is caught on
// the first revisit, not after burning the whole redirect budget; a chain
// of distinct hops longer than the 5-hop cap is cut at the cap.
func TestRedirectLoopDetected(t *testing.T) {
	cases := []struct {
		name  string
		nodes [][2]string // head node, the node it redirects to
		want  error
		saw   map[string]int64 // requests each head node served
	}{
		{"self loop", [][2]string{{"loop:80", "loop:80"}}, ErrRedirectLoop, map[string]int64{"loop:80": 1}},
		{"hop cap", [][2]string{{"a:80", "b:80"}, {"b:80", "c:80"}, {"c:80", "d:80"}, {"d:80", "e:80"}, {"e:80", "f:80"}, {"f:80", "g:80"}},
			ErrTooManyRedirects, map[string]int64{"a:80": 1, "b:80": 1, "c:80": 1, "d:80": 1, "e:80": 1, "f:80": 1}},
	}
	for _, tc := range cases {
		for _, op := range redirectOps {
			t.Run(tc.name+"/"+op.label, func(t *testing.T) {
				e, log := opEnv(t, Options{Strategy: StrategyNone})
				for _, n := range tc.nodes {
					startHeadNode(t, e, n[0], n[1])
				}
				err := op.run(context.Background(), e.client, tc.nodes[0][0], "/pool/f", []byte("data"))
				if !errors.Is(err, tc.want) {
					t.Fatalf("err = %v, want %v", err, tc.want)
				}
				for host, want := range tc.saw {
					if got := e.srvs[host].Requests(); got != want {
						t.Errorf("%s saw %d requests, want %d", host, got, want)
					}
				}
				checkOneOp(t, e, log, op.label)
			})
		}
	}
}

func TestRedirectWithoutLocationFails(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone})
	e.startServer(t, dpm1, httpserv.Options{})
	e.stores[dpm1].Put("/f", []byte("x"))
	e.faults[dpm1].Set("/f", faults.Fault{Status: http.StatusFound})
	_, err := e.client.Get(context.Background(), dpm1, "/f")
	if err == nil {
		t.Fatal("expected error for Location-less redirect")
	}
}

func TestBearerAuth(t *testing.T) {
	e := newEnv(t, Options{
		Strategy: StrategyNone,
		Auth:     &Credentials{Bearer: "wlcg-token-123"},
	})
	e.startServer(t, dpm1, httpserv.Options{
		Authorize: func(a string) bool { return a == "Bearer wlcg-token-123" },
	})
	e.stores[dpm1].Put("/f", []byte("secret"))
	ctx := context.Background()

	got, err := e.client.Get(ctx, dpm1, "/f")
	if err != nil || string(got) != "secret" {
		t.Fatalf("authorized get: %q err=%v", got, err)
	}

	// A client without credentials is rejected with 401.
	anon, err := NewClient(Options{Dialer: e.net, Strategy: StrategyNone})
	if err != nil {
		t.Fatal(err)
	}
	defer anon.Close()
	_, err = anon.Get(ctx, dpm1, "/f")
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 401 {
		t.Fatalf("anonymous err = %v", err)
	}
}

func TestBasicAuth(t *testing.T) {
	e := newEnv(t, Options{
		Strategy: StrategyNone,
		Auth:     &Credentials{Username: "alice", Password: "s3cret"},
	})
	// "alice:s3cret" base64 = YWxpY2U6czNjcmV0
	e.startServer(t, dpm1, httpserv.Options{
		Authorize: func(a string) bool { return a == "Basic YWxpY2U6czNjcmV0" },
	})
	e.stores[dpm1].Put("/f", []byte("x"))
	if _, err := e.client.Get(context.Background(), dpm1, "/f"); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumVerification(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone, VerifyTransfers: true})
	e.startServer(t, dpm1, httpserv.Options{})
	blob := []byte("verified payload")
	e.stores[dpm1].Put("/f", blob)
	ctx := context.Background()

	got, err := e.client.Get(ctx, dpm1, "/f")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("get: %v", err)
	}

	// A lying server: correct data advertised under a wrong checksum.
	// Simulate by serving through a raw handler is heavy; instead verify
	// the checker directly and via a corrupted store entry with a stale
	// checksum header captured from the original object.
	if err := verifyChecksum(blob, storage.Checksum(blob), "/f"); err != nil {
		t.Fatalf("matching checksum rejected: %v", err)
	}
	if err := verifyChecksum([]byte("tampered!"), storage.Checksum(blob), "/f"); !errors.Is(err, ErrChecksumMismatch) {
		t.Fatalf("mismatch not detected: %v", err)
	}
	// Unknown algorithms fail rather than being skipped.
	if err := verifyChecksum(blob, "sha256:00", "/f"); !errors.Is(err, ErrChecksumUnsupported) {
		t.Fatalf("unknown algo: got %v, want ErrChecksumUnsupported", err)
	}
	// Malformed values must never pass verification.
	if err := verifyChecksum(blob, "garbage-no-colon", "/f"); err == nil {
		t.Fatal("malformed (no colon) accepted")
	}
	if err := verifyChecksum(blob, "md5:abcdef", "/f"); err == nil {
		t.Fatal("wrong-length md5 accepted")
	}
	if err := verifyChecksum(blob, "adler32:zzzzzzzz", "/f"); err == nil {
		t.Fatal("non-hex adler32 accepted")
	}
	// The mismatch error names the offending byte span.
	err = verifyChecksum([]byte("tampered!"), storage.Checksum(blob), "/f")
	var ce *ChecksumError
	if !errors.As(err, &ce) || ce.Length != int64(len("tampered!")) {
		t.Fatalf("mismatch error lacks span: %v", err)
	}
}

func TestThirdPartyCopy(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone})
	// The source server needs its own client to push with.
	copier, err := NewClient(Options{Dialer: e.net, Strategy: StrategyNone})
	if err != nil {
		t.Fatal(err)
	}
	defer copier.Close()
	e.startServer(t, "src:80", httpserv.Options{Copier: copier})
	e.startServer(t, "dst:80", httpserv.Options{})

	blob := make([]byte, 256<<10)
	rand.New(rand.NewSource(1)).Read(blob)
	e.stores["src:80"].Put("/data/big", blob)

	ctx := context.Background()
	if err := e.client.Copy(ctx, "src:80", "/data/big", "http://dst:80/landed/big"); err != nil {
		t.Fatal(err)
	}
	got, _, err := e.stores["dst:80"].Get("/landed/big")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("dest content: %d bytes err=%v", len(got), err)
	}
	// The data flowed server-to-server: the requesting client issued only
	// the COPY.
	if e.srvs["src:80"].RequestsByMethod("COPY") != 1 {
		t.Fatal("COPY not served by source")
	}
	if e.srvs["dst:80"].RequestsByMethod("PUT") != 1 {
		t.Fatal("PUT not pushed to destination")
	}
}

func TestThirdPartyCopyErrors(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone})
	e.startServer(t, "plain:80", httpserv.Options{}) // no Copier
	ctx := context.Background()

	err := e.client.Copy(ctx, "plain:80", "/f", "http://dst:80/f")
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotImplemented {
		t.Fatalf("copy without copier err = %v", err)
	}

	copier, _ := NewClient(Options{Dialer: e.net, Strategy: StrategyNone})
	defer copier.Close()
	e.startServer(t, "src:80", httpserv.Options{Copier: copier})
	e.stores["src:80"].Put("/f", []byte("x"))

	// Missing destination header cannot happen via Copy(); bad dest URL can.
	if err := e.client.Copy(ctx, "src:80", "/f", "ftp://nope/f"); err == nil {
		t.Fatal("bad destination accepted")
	}
	// Unreachable destination: 502.
	err = e.client.Copy(ctx, "src:80", "/f", "http://ghost:80/f")
	if !errors.As(err, &se) || se.Code != http.StatusBadGateway {
		t.Fatalf("unreachable dest err = %v", err)
	}
	// Missing source: 404.
	err = e.client.Copy(ctx, "src:80", "/missing", "http://dst:80/f")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing source err = %v", err)
	}
}

func TestRedirectAcrossFailover(t *testing.T) {
	// Head node redirecting to a dead disk node: the dial failure must be
	// classified as replica-unavailable and fail over via metalink.
	e := newEnv(t, Options{MetalinkHost: "fed:80"})
	e.startServer(t, "disk1:80", httpserv.Options{})
	e.startServer(t, "dpm2:80", httpserv.Options{})
	startHeadNode(t, e, "head:80", "disk1:80")

	blob := []byte("survives redirect failure")
	e.stores["disk1:80"].Put("/pool/f", blob)
	e.stores["dpm2:80"].Put("/pool/f", blob)

	ml := mlFor("http://dpm2:80/pool/f")
	e.startServer(t, "fed:80", httpserv.Options{Metalinks: ml})

	e.net.SetDown("disk1:80", true)
	got, err := e.client.Get(context.Background(), "head:80", "/pool/f")
	if err != nil {
		t.Fatalf("failover after redirect: %v", err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("got %q", got)
	}
}

// mlFor builds a MetalinkProvider listing the given replica URLs.
func mlFor(urls ...string) httpserv.MetalinkProvider {
	return func(p string) *metalink.Metalink {
		doc := &metalink.Metalink{Name: "f", Size: -1}
		for i, u := range urls {
			doc.URLs = append(doc.URLs, metalink.URL{Loc: u, Priority: i + 1})
		}
		return doc
	}
}
