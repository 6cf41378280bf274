package fed

import (
	"context"
	"testing"
	"time"

	"godavix/internal/core"
	"godavix/internal/httpserv"
	"godavix/internal/metalink"
	"godavix/internal/netsim"
	"godavix/internal/storage"
)

type env struct {
	net    *netsim.Network
	client *core.Client
	stores map[string]*storage.MemStore
}

func newEnv(t *testing.T) *env {
	t.Helper()
	e := &env{net: netsim.New(netsim.Ideal()), stores: map[string]*storage.MemStore{}}
	c, err := core.NewClient(core.Options{Dialer: e.net, Strategy: core.StrategyNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	e.client = c
	return e
}

func (e *env) startServer(t *testing.T, addr string) *httpserv.Server {
	t.Helper()
	st := storage.NewMemStore()
	srv := httpserv.New(st, httpserv.Options{})
	l, err := e.net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go srv.Serve(l)
	e.stores[addr] = st
	return srv
}

func TestMetalinkListsLiveReplicasInPriorityOrder(t *testing.T) {
	e := newEnv(t)
	e.startServer(t, "dpm1:80")
	e.startServer(t, "dpm2:80")
	e.stores["dpm1:80"].Put("/store/f", []byte("data!"))
	e.stores["dpm2:80"].Put("/store/f", []byte("data!"))

	f := New(e.client, []Endpoint{
		{Host: "dpm2:80", Priority: 2},
		{Host: "dpm1:80", Priority: 1},
	}, Options{})

	ml := f.MetalinkFor("/store/f")
	if ml == nil {
		t.Fatal("no metalink")
	}
	if len(ml.URLs) != 2 {
		t.Fatalf("urls = %+v", ml.URLs)
	}
	if ml.URLs[0].Loc != "http://dpm1:80/store/f" {
		t.Fatalf("priority order wrong: %+v", ml.URLs)
	}
	if ml.Size != 5 || ml.Checksum == "" {
		t.Fatalf("metadata: size=%d checksum=%q", ml.Size, ml.Checksum)
	}
}

func TestMetalinkSkipsDeadEndpoint(t *testing.T) {
	e := newEnv(t)
	e.startServer(t, "dpm1:80")
	e.startServer(t, "dpm2:80")
	e.stores["dpm1:80"].Put("/f", []byte("x"))
	e.stores["dpm2:80"].Put("/f", []byte("x"))
	e.net.SetDown("dpm1:80", true)

	f := New(e.client, []Endpoint{
		{Host: "dpm1:80", Priority: 1},
		{Host: "dpm2:80", Priority: 2},
	}, Options{})
	ml := f.MetalinkFor("/f")
	if ml == nil || len(ml.URLs) != 1 || ml.URLs[0].Loc != "http://dpm2:80/f" {
		t.Fatalf("metalink = %+v", ml)
	}
}

func TestMetalinkSkipsEndpointWithoutReplica(t *testing.T) {
	e := newEnv(t)
	e.startServer(t, "dpm1:80")
	e.startServer(t, "dpm2:80")
	e.stores["dpm2:80"].Put("/f", []byte("x")) // only dpm2 holds it

	f := New(e.client, []Endpoint{
		{Host: "dpm1:80", Priority: 1},
		{Host: "dpm2:80", Priority: 2},
	}, Options{})
	ml := f.MetalinkFor("/f")
	if ml == nil || len(ml.URLs) != 1 || ml.URLs[0].Loc != "http://dpm2:80/f" {
		t.Fatalf("metalink = %+v", ml)
	}
}

func TestMetalinkNilWhenNowhere(t *testing.T) {
	e := newEnv(t)
	e.startServer(t, "dpm1:80")
	f := New(e.client, []Endpoint{{Host: "dpm1:80", Priority: 1}}, Options{})
	if ml := f.MetalinkFor("/ghost"); ml != nil {
		t.Fatalf("metalink = %+v", ml)
	}
}

func TestPrefixMapping(t *testing.T) {
	e := newEnv(t)
	e.startServer(t, "dpm1:80")
	e.stores["dpm1:80"].Put("/pool1/data/f", []byte("x"))

	f := New(e.client, []Endpoint{{Host: "dpm1:80", Prefix: "/pool1", Priority: 1}}, Options{})
	ml := f.MetalinkFor("/data/f")
	if ml == nil || ml.URLs[0].Loc != "http://dpm1:80/pool1/data/f" {
		t.Fatalf("metalink = %+v", ml)
	}
}

func TestHealthCacheTTL(t *testing.T) {
	e := newEnv(t)
	e.startServer(t, "dpm1:80")
	e.stores["dpm1:80"].Put("/f", []byte("x"))

	f := New(e.client, []Endpoint{{Host: "dpm1:80", Priority: 1}}, Options{HealthTTL: time.Hour})
	f.MetalinkFor("/f")
	f.MetalinkFor("/f")
	f.MetalinkFor("/f")
	if got := f.Probes(); got != 1 {
		t.Fatalf("probes = %d, want 1 (TTL caching)", got)
	}
}

func TestHealthRecoveryAfterTTL(t *testing.T) {
	e := newEnv(t)
	e.startServer(t, "dpm1:80")
	e.stores["dpm1:80"].Put("/f", []byte("x"))
	e.net.SetDown("dpm1:80", true)

	f := New(e.client, []Endpoint{{Host: "dpm1:80", Priority: 1}},
		Options{HealthTTL: 20 * time.Millisecond})
	if ml := f.MetalinkFor("/f"); ml != nil {
		t.Fatalf("dead endpoint listed: %+v", ml)
	}
	e.net.SetDown("dpm1:80", false)
	time.Sleep(30 * time.Millisecond)
	if ml := f.MetalinkFor("/f"); ml == nil {
		t.Fatal("recovered endpoint still considered dead after TTL")
	}
}

// TestEndToEndWithFailoverClient wires federation + davix failover: client
// reads through a dead primary and lands on the live replica.
func TestEndToEndWithFailoverClient(t *testing.T) {
	e := newEnv(t)
	e.startServer(t, "dpm1:80")
	e.startServer(t, "dpm2:80")
	blob := []byte("federated payload")
	e.stores["dpm1:80"].Put("/store/f", blob)
	e.stores["dpm2:80"].Put("/store/f", blob)

	f := New(e.client, []Endpoint{
		{Host: "dpm1:80", Priority: 1},
		{Host: "dpm2:80", Priority: 2},
	}, Options{HealthTTL: 10 * time.Millisecond})

	// Federation front-end served over HTTP.
	fedSrv := httpserv.New(storage.NewMemStore(), httpserv.Options{Metalinks: f.MetalinkFor})
	l, err := e.net.Listen("fed:80")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go fedSrv.Serve(l)

	// Analysis client with failover through the federation.
	ac, err := core.NewClient(core.Options{
		Dialer:       e.net,
		Strategy:     core.StrategyFailover,
		MetalinkHost: "fed:80",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()

	ctx := context.Background()
	file, err := ac.Open(ctx, "dpm1:80", "/store/f")
	if err != nil {
		t.Fatal(err)
	}
	e.net.SetDown("dpm1:80", true)
	time.Sleep(15 * time.Millisecond) // let the health cache expire

	buf := make([]byte, len(blob))
	if _, err := file.ReadAt(buf, 0); err != nil {
		t.Fatalf("federated failover read: %v", err)
	}
	if string(buf) != string(blob) {
		t.Fatalf("content = %q", buf)
	}

	// Sanity: the federation's own metalink no longer lists dpm1.
	ml := f.MetalinkFor("/store/f")
	if ml == nil {
		t.Fatal("no metalink after primary death")
	}
	for _, u := range ml.URLs {
		if u.Loc == "http://dpm1:80/store/f" {
			t.Fatal("dead primary still listed")
		}
	}
	_ = metalink.MediaType
}

// TestEndToEndEscapedName: a name that needs escaping survives the whole
// federated failover. The client asks for /store/a%20b, the gateway hands
// the federation the decoded /store/a b, and the Metalink it lists must
// lead the client to the live replica under the escaped name.
func TestEndToEndEscapedName(t *testing.T) {
	e := newEnv(t)
	e.startServer(t, "dpm1:80")
	e.startServer(t, "dpm2:80")
	blob := []byte("federated payload under a spaced name")
	e.stores["dpm1:80"].Put("/store/a b", blob)
	e.stores["dpm2:80"].Put("/store/a b", blob)
	e.net.SetDown("dpm1:80", true)

	f := New(e.client, []Endpoint{
		{Host: "dpm1:80", Priority: 1},
		{Host: "dpm2:80", Priority: 2},
	}, Options{})
	fedSrv := httpserv.New(storage.NewMemStore(), httpserv.Options{Metalinks: f.MetalinkFor})
	l, err := e.net.Listen("fed:80")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go fedSrv.Serve(l)

	ac, err := core.NewClient(core.Options{Dialer: e.net, MetalinkHost: "fed:80"})
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	got, err := ac.Get(context.Background(), "dpm1:80", "/store/a%20b")
	if err != nil {
		t.Fatalf("federated failover read: %v", err)
	}
	if string(got) != string(blob) {
		t.Fatalf("content = %q", got)
	}
	if ml := f.MetalinkFor("/store/a b"); ml == nil || ml.URLs[0].Loc != "http://dpm2:80/store/a%20b" {
		t.Fatalf("metalink = %+v", ml)
	}
}
