package core

import (
	"bytes"
	"context"
	"io"
	"testing"
	"time"

	"godavix/internal/faults"
	"godavix/internal/httpserv"
	"godavix/internal/metalink"
)

// TestAbortedRequestFailsCleanly: the server crashes before answering; the
// client must surface a transport error, not hang or panic.
func TestAbortedRequestFailsCleanly(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone})
	e.startServer(t, dpm1, httpserv.Options{})
	e.stores[dpm1].Put("/f", []byte("x"))
	e.faults[dpm1].Set("/f", faults.Fault{Abort: true, Remaining: 1})

	_, err := e.client.Get(context.Background(), dpm1, "/f")
	if err == nil {
		t.Fatal("expected transport error from aborted connection")
	}
	// Next request works (fault expired, fresh connection dialed).
	got, err := e.client.Get(context.Background(), dpm1, "/f")
	if err != nil || string(got) != "x" {
		t.Fatalf("recovery get = %q err=%v", got, err)
	}
}

// TestMidBodyTruncationDetected: the body is cut after half the declared
// Content-Length; the client must report an error, never short data.
func TestMidBodyTruncationDetected(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone})
	e.startServer(t, dpm1, httpserv.Options{})
	blob := make([]byte, 64<<10)
	for i := range blob {
		blob[i] = byte(i)
	}
	e.stores[dpm1].Put("/f", blob)
	e.faults[dpm1].Set("/f", faults.Fault{DropAfter: 32 << 10, Remaining: 1})

	_, err := e.client.Get(context.Background(), dpm1, "/f")
	if err == nil {
		t.Fatal("truncated body not detected")
	}
	got, err := e.client.Get(context.Background(), dpm1, "/f")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("recovery get: %d bytes err=%v", len(got), err)
	}
}

// TestMidBodyCutFailsOverToReplica: a replica dying mid-transfer is an
// unavailability signal; the read must complete from the second replica.
func TestMidBodyCutFailsOverToReplica(t *testing.T) {
	e := newEnv(t, Options{MetalinkHost: "fed:80"})
	e.startServer(t, dpm1, httpserv.Options{})
	e.startServer(t, "dpm2:80", httpserv.Options{})
	blob := make([]byte, 32<<10)
	for i := range blob {
		blob[i] = byte(i * 7)
	}
	e.stores[dpm1].Put("/f", blob)
	e.stores["dpm2:80"].Put("/f", blob)
	e.startServer(t, "fed:80", httpserv.Options{Metalinks: mlFor("http://dpm2:80/f")})

	// Primary always cuts transfers of /f halfway.
	e.faults[dpm1].Set("/f", faults.Fault{DropAfter: 16 << 10})

	got, err := e.client.Get(context.Background(), dpm1, "/f")
	if err != nil {
		t.Fatalf("failover after mid-body cut: %v", err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("content mismatch after failover")
	}
}

// TestFileReadRetriesThroughCut: File.ReadAt across a mid-body cut with
// replicas behind a federation.
func TestFileReadRetriesThroughCut(t *testing.T) {
	e := newEnv(t, Options{MetalinkHost: "fed:80"})
	e.startServer(t, dpm1, httpserv.Options{})
	e.startServer(t, "dpm2:80", httpserv.Options{})
	blob := make([]byte, 16<<10)
	for i := range blob {
		blob[i] = byte(i * 3)
	}
	e.stores[dpm1].Put("/f", blob)
	e.stores["dpm2:80"].Put("/f", blob)
	e.startServer(t, "fed:80", httpserv.Options{Metalinks: mlFor("http://dpm2:80/f")})

	ctx := context.Background()
	f, err := e.client.Open(ctx, dpm1, "/f")
	if err != nil {
		t.Fatal(err)
	}
	e.faults[dpm1].Set("/f", faults.Fault{Abort: true})

	buf := make([]byte, len(blob))
	if _, err := io.ReadFull(io.NewSectionReader(readAtAdapter{f}, 0, f.Size()), buf); err != nil {
		t.Fatalf("sectioned read with aborting primary: %v", err)
	}
	if !bytes.Equal(buf, blob) {
		t.Fatal("content mismatch")
	}
}

// readAtAdapter strips the context from File.ReadAt for io.SectionReader.
type readAtAdapter struct{ f *File }

func (a readAtAdapter) ReadAt(p []byte, off int64) (int, error) { return a.f.ReadAt(p, off) }

// TestMultiStreamCancelsSiblingsOnError: when one chunk fails for a reason
// no replica can fix, the sibling streams must be cancelled instead of
// draining the whole work queue. Exactly one chunk GET hits a semantic
// (non-retryable) 403; every other GET is held server-side far longer than
// the test may take, so no sibling can complete before the cancellation —
// the server sees at most one GET per stream, and the call can only return
// promptly if cancellation aborts the blocked siblings on the in-memory
// sink too.
func TestMultiStreamCancelsSiblingsOnError(t *testing.T) {
	const streams = 2
	const hold = 5 * time.Second
	e := newEnv(t, Options{MetalinkHost: "fed:80", ChunkSize: 256, MaxStreams: streams})
	blob := make([]byte, 64<<8) // 64 chunks
	e.startServer(t, dpm1, httpserv.Options{})
	e.stores[dpm1].Put("/f", blob)
	ml := &metalink.Metalink{
		Name: "f", Size: int64(len(blob)),
		URLs: []metalink.URL{{Loc: "http://dpm1:80/f", Priority: 1}},
	}
	e.startServer(t, "fed:80", httpserv.Options{
		Metalinks: func(string) *metalink.Metalink { return ml },
	})
	// The path fault shadows "*" until its one use is spent.
	e.faults[dpm1].Set("/f", faults.Fault{Status: 403, Remaining: 1})
	e.faults[dpm1].Set("*", faults.Fault{Delay: hold})

	start := time.Now()
	_, err := e.client.DownloadMultiStream(context.Background(), dpm1, "/f")
	if err == nil {
		t.Fatal("expected error")
	}
	if d := time.Since(start); d > hold/2 {
		t.Fatalf("returned after %v: a cancelled sibling sat out the server's %v hold", d, hold)
	}
	if got := e.faults[dpm1].Requests("GET"); got > streams {
		t.Fatalf("server saw %d chunk GETs, want at most %d; siblings not cancelled", got, streams)
	}
}
