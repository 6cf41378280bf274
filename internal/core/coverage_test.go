package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"testing"

	"godavix/internal/httpserv"
	"godavix/internal/metalink"
	"godavix/internal/netsim"
	"godavix/internal/rangev"
	"godavix/internal/storage"
	"godavix/internal/wire"
)

// TestResponseCloseDrainsSmallRemainder: closing a response with a small
// unread tail drains it and recycles the connection instead of discarding.
func TestResponseCloseDrainsSmallRemainder(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone})
	e.startServer(t, dpm1, httpserv.Options{})
	e.stores[dpm1].Put("/f", make([]byte, 1024))
	ctx := context.Background()

	err := e.client.exec(ctx, dpm1, "/f", specGet, func(h, p string) *wire.Request {
		return wire.NewRequest("GET", h, p)
	}, func(_ Replica, resp *Response) error {
		// Read only part of the body, then Close.
		if _, err := io.ReadFull(resp.Body, make([]byte, 100)); err != nil {
			return err
		}
		return resp.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	// The connection must have been recycled (one dial total).
	if _, err := e.client.Get(ctx, dpm1, "/f"); err != nil {
		t.Fatal(err)
	}
	if e.net.Dials() != 1 {
		t.Fatalf("dials = %d, want 1 (remainder drained and recycled)", e.net.Dials())
	}
}

// rangeIgnorantServer answers every GET with the full object (HTTP/1.1 200,
// no Range support) and every HEAD with its headers — the fallback path of
// GetRange, ReadVec and the chunk pipeline.
func rangeIgnorantServer(t *testing.T, l net.Listener, blob []byte) {
	t.Helper()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 8192)
				for {
					n, err := c.Read(buf)
					if err != nil {
						return
					}
					fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", len(blob))
					if !bytes.HasPrefix(buf[:n], []byte("HEAD ")) {
						c.Write(blob)
					}
				}
			}(c)
		}
	}()
}

func TestGetRangeAgainstRangeIgnorantServer(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone})
	blob := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(blob)
	l, err := e.net.Listen("old:80")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rangeIgnorantServer(t, l, blob)
	ctx := context.Background()

	got, err := e.client.GetRange(ctx, "old:80", "/f", 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob[100:150]) {
		t.Fatal("fallback slice mismatch")
	}

	// Past-EOF offset yields a 416-style error.
	if _, err := e.client.GetRange(ctx, "old:80", "/f", 10_000, 10); err == nil {
		t.Fatal("past-EOF range accepted")
	}

	// Vectored read falls back to the full body too.
	ranges := []rangev.Range{{Off: 0, Len: 16}, {Off: 4000, Len: 96}}
	dsts := [][]byte{make([]byte, 16), make([]byte, 96)}
	if err := e.client.ReadVec(ctx, "old:80", "/f", ranges, dsts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dsts[1], blob[4000:4096]) {
		t.Fatal("vectored fallback mismatch")
	}
}

// TestChunkPipelineAgainstRangeIgnorantServer drives every chunk-reading
// entry point against a server that answers ranged GETs with the whole
// object: each chunk must skip the prefix and keep exactly its slice, and a
// chunk that lies past the end of the body must surface the 416 a
// range-honouring server would have sent.
func TestChunkPipelineAgainstRangeIgnorantServer(t *testing.T) {
	const old, dst = "old:80", "dpm2:80"
	const chunk = 1 << 10
	blob := make([]byte, 4*chunk)
	rand.New(rand.NewSource(7)).Read(blob)
	// claimed is the object size the Metalink advertises to the downloads.
	claimed := int64(len(blob))
	e := newEnv(t, Options{MetalinkHost: "fed:80", ChunkSize: chunk, MaxStreams: 2, UploadParallelism: 2})
	l, err := e.net.Listen(old)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rangeIgnorantServer(t, l, blob)
	e.startServer(t, dst, httpserv.Options{})
	e.startServer(t, "fed:80", httpserv.Options{Metalinks: func(string) *metalink.Metalink {
		return &metalink.Metalink{Name: "f", Size: claimed,
			URLs: []metalink.URL{{Loc: "http://" + old + "/f", Priority: 1}}}
	}})
	ctx := context.Background()

	got, err := e.client.DownloadMultiStream(ctx, old, "/f")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("DownloadMultiStream: %d bytes err=%v", len(got), err)
	}
	w := &bufWriterAt{b: make([]byte, len(blob))}
	if n, err := e.client.DownloadMultiStreamTo(ctx, old, "/f", w); err != nil || n != claimed || !bytes.Equal(w.b, blob) {
		t.Fatalf("DownloadMultiStreamTo: n=%d err=%v", n, err)
	}
	if err := e.client.CopyStream(ctx, old, "/f", "http://"+dst+"/copy"); err != nil {
		t.Fatalf("CopyStream: %v", err)
	}
	if stored, _, err := e.stores[dst].Get("/copy"); err != nil || !bytes.Equal(stored, blob) {
		t.Fatalf("CopyStream stored %d bytes err=%v", len(stored), err)
	}

	// The Metalink now claims one chunk more than the server holds: that
	// chunk starts exactly at end of body.
	claimed += chunk
	var se *StatusError
	if _, err := e.client.DownloadMultiStream(ctx, old, "/f"); !errors.As(err, &se) || se.Code != 416 {
		t.Fatalf("DownloadMultiStream past EOF: err = %v, want a 416 StatusError", err)
	}
	w = &bufWriterAt{b: make([]byte, claimed)}
	if _, err := e.client.DownloadMultiStreamTo(ctx, old, "/f", w); !errors.As(err, &se) || se.Code != 416 {
		t.Fatalf("DownloadMultiStreamTo past EOF: err = %v, want a 416 StatusError", err)
	}
	// A chunk that starts beyond end of body runs out while skipping.
	err = e.client.readChunkInto(ctx, []Replica{{Host: old, Path: "/f"}}, 0, claimed+chunk, make([]byte, chunk))
	if !errors.As(err, &se) || se.Code != 416 {
		t.Fatalf("chunk beyond EOF: err = %v, want a 416 StatusError", err)
	}
}

// TestMultiStreamEntryPointsWireIdentical: at MaxStreams 1 the in-memory
// download puts exactly the requests of DownloadMultiStreamTo on the wire
// for the same object — Metalink probe, then the chunk GETs in order, byte
// for byte (method, path, Range and every other header).
func TestMultiStreamEntryPointsWireIdentical(t *testing.T) {
	e := newEnv(t, Options{})
	blob := make([]byte, 5<<10+123)
	rand.New(rand.NewSource(8)).Read(blob)
	e.startServer(t, dpm1, httpserv.Options{Metalinks: func(string) *metalink.Metalink {
		return &metalink.Metalink{Name: "f", Size: int64(len(blob)),
			URLs: []metalink.URL{{Loc: "http://dpm1:80/f", Priority: 1}}}
	}})
	e.stores[dpm1].Put("/f", blob)

	capture := func(op func(ctx context.Context, c *Client) error) []byte {
		t.Helper()
		rd := &recordDialer{inner: e.net}
		c, err := NewClient(Options{Dialer: rd, ChunkSize: 1 << 10, MaxStreams: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := op(context.Background(), c); err != nil {
			t.Fatal(err)
		}
		rd.mu.Lock()
		defer rd.mu.Unlock()
		return append([]byte(nil), rd.buf.Bytes()...)
	}
	inMemory := capture(func(ctx context.Context, c *Client) error {
		got, err := c.DownloadMultiStream(ctx, dpm1, "/f")
		if err == nil && !bytes.Equal(got, blob) {
			err = errors.New("content mismatch")
		}
		return err
	})
	writerAt := capture(func(ctx context.Context, c *Client) error {
		w := &bufWriterAt{b: make([]byte, len(blob))}
		_, err := c.DownloadMultiStreamTo(ctx, dpm1, "/f", w)
		if err == nil && !bytes.Equal(w.b, blob) {
			err = errors.New("content mismatch")
		}
		return err
	})
	if want := 1 + 6; bytes.Count(writerAt, []byte("GET ")) != want {
		t.Fatalf("DownloadMultiStreamTo sent %d GETs, want %d (Metalink + 6 chunks)", bytes.Count(writerAt, []byte("GET ")), want)
	}
	if !bytes.Equal(inMemory, writerAt) {
		t.Fatalf("request streams differ:\nDownloadMultiStream:\n%s\nDownloadMultiStreamTo:\n%s", inMemory, writerAt)
	}
}

// TestMultiStreamWithoutMetalinkSize: the metalink omits the size; the
// client must stat a replica to learn it.
func TestMultiStreamWithoutMetalinkSize(t *testing.T) {
	e := newEnv(t, Options{MetalinkHost: "fed:80", ChunkSize: 1 << 10, MaxStreams: 2})
	blob := make([]byte, 5<<10)
	rand.New(rand.NewSource(2)).Read(blob)
	for _, r := range []string{"dpm1:80", "dpm2:80"} {
		e.startServer(t, r, httpserv.Options{})
		e.stores[r].Put("/f", blob)
	}
	ml := &metalink.Metalink{
		Name: "f", Size: -1, // unknown
		URLs: []metalink.URL{
			{Loc: "http://dpm1:80/f", Priority: 1},
			{Loc: "http://dpm2:80/f", Priority: 2},
		},
	}
	e.startServer(t, "fed:80", httpserv.Options{
		Metalinks: func(string) *metalink.Metalink { return ml },
	})

	got, err := e.client.DownloadMultiStream(context.Background(), "dpm1:80", "/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("content mismatch")
	}
}

func TestMultiStreamEmptyObject(t *testing.T) {
	e := newEnv(t, Options{MetalinkHost: "fed:80"})
	e.startServer(t, dpm1, httpserv.Options{})
	e.stores[dpm1].Put("/empty", nil)
	ml := &metalink.Metalink{
		Name: "empty", Size: 0,
		URLs: []metalink.URL{{Loc: "http://dpm1:80/empty", Priority: 1}},
	}
	e.startServer(t, "fed:80", httpserv.Options{
		Metalinks: func(string) *metalink.Metalink { return ml },
	})
	got, err := e.client.DownloadMultiStream(context.Background(), dpm1, "/empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("empty download: %d bytes err=%v", len(got), err)
	}
}

// TestConcurrentMixedWorkload stresses the client with parallel gets,
// vectored reads and stats sharing one pool — the paper's "thread-safe
// query dispatch" property.
func TestConcurrentMixedWorkload(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone})
	e.startServer(t, dpm1, httpserv.Options{})
	blob := make([]byte, 32<<10)
	rand.New(rand.NewSource(3)).Read(blob)
	e.stores[dpm1].Put("/f", blob)
	ctx := context.Background()

	errCh := make(chan error, 48)
	for i := 0; i < 16; i++ {
		go func(i int) {
			_, err := e.client.GetRange(ctx, dpm1, "/f", int64(i)*100, 100)
			errCh <- err
		}(i)
		go func() {
			_, err := e.client.Stat(ctx, dpm1, "/f")
			errCh <- err
		}()
		go func(i int) {
			ranges := []rangev.Range{{Off: int64(i) * 512, Len: 64}, {Off: 16 << 10, Len: 128}}
			dsts := [][]byte{make([]byte, 64), make([]byte, 128)}
			errCh <- e.client.ReadVec(ctx, dpm1, "/f", ranges, dsts)
		}(i)
	}
	for i := 0; i < 48; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}

// TestWANProfileStillCorrect runs a small end-to-end read on the WAN
// profile to ensure shaping never corrupts data.
func TestWANProfileStillCorrect(t *testing.T) {
	n := netsim.New(netsim.WAN())
	st := storage.NewMemStore()
	srv := httpserv.New(st, httpserv.Options{})
	l, err := n.Listen(dpm1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)

	client, err := NewClient(Options{Dialer: n, Strategy: StrategyNone})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	blob := make([]byte, 256<<10)
	rand.New(rand.NewSource(4)).Read(blob)
	st.Put("/f", blob)
	got, err := client.Get(context.Background(), dpm1, "/f")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("WAN get: %d bytes err=%v", len(got), err)
	}
}
