package xrootd

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"godavix/internal/netsim"
	"godavix/internal/storage"
)

type env struct {
	net    *netsim.Network
	store  *storage.MemStore
	server *Server
	client *Client
}

func newEnv(t *testing.T, prof netsim.Profile) *env {
	t.Helper()
	e := &env{
		net:   netsim.New(prof),
		store: storage.NewMemStore(),
	}
	e.server = NewServer(e.store)
	l, err := e.net.Listen("xrd:1094")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go e.server.Serve(l)
	e.client = NewClient(e.net, "xrd:1094")
	t.Cleanup(func() { e.client.Close() })
	return e
}

func TestFrameRoundTrip(t *testing.T) {
	prop := func(stream, op uint16, handle uint32, offset uint64, length uint32, payload []byte) bool {
		var buf bytes.Buffer
		in := &requestFrame{Stream: stream, Op: op, Handle: handle, Offset: offset, Length: length, Payload: payload}
		if err := writeRequest(&buf, in); err != nil {
			return false
		}
		out, err := readRequest(&buf)
		if err != nil {
			return false
		}
		return out.Stream == stream && out.Op == op && out.Handle == handle &&
			out.Offset == offset && out.Length == length && bytes.Equal(out.Payload, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestResponseFrameRoundTrip(t *testing.T) {
	prop := func(stream, status uint16, payload []byte) bool {
		var buf bytes.Buffer
		if err := writeResponse(&buf, &responseFrame{Stream: stream, Status: status, Payload: payload}); err != nil {
			return false
		}
		out, err := readResponse(&buf)
		if err != nil {
			return false
		}
		return out.Stream == stream && out.Status == status && bytes.Equal(out.Payload, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkCodecRoundTrip(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		chunks := make([]Chunk, int(n%64)+1)
		for i := range chunks {
			chunks[i] = Chunk{Handle: r.Uint32(), Offset: r.Int63(), Length: r.Int31()}
		}
		got, err := decodeChunks(encodeChunks(chunks))
		if err != nil || len(got) != len(chunks) {
			return false
		}
		for i := range chunks {
			if got[i] != chunks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeChunks(make([]byte, 7)); err == nil {
		t.Fatal("odd-length payload accepted")
	}
}

func TestOpenStatReadClose(t *testing.T) {
	e := newEnv(t, netsim.Ideal())
	blob := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(blob)
	e.store.Put("/store/f", blob)
	ctx := context.Background()

	size, dir, err := e.client.Stat(ctx, "/store/f")
	if err != nil || size != 4096 || dir {
		t.Fatalf("stat = %d %v %v", size, dir, err)
	}

	f, err := e.client.Open(ctx, "/store/f")
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 4096 {
		t.Fatalf("size = %d", f.Size())
	}
	buf := make([]byte, 100)
	if _, err := f.ReadAt(ctx, buf, 1000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, blob[1000:1100]) {
		t.Fatal("read content mismatch")
	}
	if err := f.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Read on a closed handle fails.
	if _, err := f.ReadAt(ctx, buf, 0); err == nil {
		t.Fatal("read after close succeeded")
	}
}

func TestOpenMissing(t *testing.T) {
	e := newEnv(t, netsim.Ideal())
	_, err := e.client.Open(context.Background(), "/none")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	_, _, err = e.client.Stat(context.Background(), "/none")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("stat err = %v", err)
	}
}

func TestReadAtEOF(t *testing.T) {
	e := newEnv(t, netsim.Ideal())
	e.store.Put("/f", []byte("abc"))
	ctx := context.Background()
	f, err := e.client.Open(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(ctx, make([]byte, 1), 10); err != io.EOF {
		t.Fatalf("err = %v", err)
	}
	n, err := f.ReadAt(ctx, make([]byte, 10), 1)
	if n != 2 || err != io.EOF {
		t.Fatalf("partial: n=%d err=%v", n, err)
	}
}

func TestReadVScattersChunks(t *testing.T) {
	e := newEnv(t, netsim.Ideal())
	blob := make([]byte, 64<<10)
	rand.New(rand.NewSource(2)).Read(blob)
	e.store.Put("/f", blob)
	ctx := context.Background()

	f, err := e.client.Open(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	chunks := make([]Chunk, 100)
	dsts := make([][]byte, len(chunks))
	for i := range chunks {
		off := rng.Int63n(int64(len(blob) - 256))
		chunks[i] = Chunk{Offset: off, Length: int32(rng.Intn(255) + 1)}
		dsts[i] = make([]byte, chunks[i].Length)
	}
	if err := f.ReadV(ctx, chunks, dsts); err != nil {
		t.Fatal(err)
	}
	for i, ck := range chunks {
		if !bytes.Equal(dsts[i], blob[ck.Offset:ck.Offset+int64(ck.Length)]) {
			t.Fatalf("chunk %d mismatch", i)
		}
	}
	if e.server.ReadVs() != 1 {
		t.Fatalf("server readv count = %d, want 1", e.server.ReadVs())
	}
}

// TestMultiplexingOutOfOrder: a slow request must not block a fast one
// issued later on the same connection — the anti-HOL property of Figure 1.
func TestMultiplexingOutOfOrder(t *testing.T) {
	e := newEnv(t, netsim.Ideal())
	// Big payload (slow under bandwidth shaping) and a tiny one.
	big := make([]byte, 8<<20)
	e.store.Put("/big", big)
	e.store.Put("/small", []byte("s"))
	ctx := context.Background()

	fb, err := e.client.Open(ctx, "/big")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := e.client.Open(ctx, "/small")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	bigDone := make(chan time.Time, 1)
	smallDone := make(chan time.Time, 1)
	wg.Add(2)
	go func() {
		defer wg.Done()
		buf := make([]byte, len(big))
		if _, err := fb.ReadAt(ctx, buf, 0); err != nil {
			t.Error(err)
		}
		bigDone <- time.Now()
	}()
	time.Sleep(2 * time.Millisecond) // let the big request hit the wire first
	go func() {
		defer wg.Done()
		if _, err := fs.ReadAt(ctx, make([]byte, 1), 0); err != nil {
			t.Error(err)
		}
		smallDone <- time.Now()
	}()
	wg.Wait()
	// Both succeeded on one connection.
	if e.net.Dials() != 1 {
		t.Fatalf("dials = %d, want 1 (single multiplexed conn)", e.net.Dials())
	}
	_ = <-bigDone
	_ = <-smallDone
}

func TestConcurrentRequestsSingleConnection(t *testing.T) {
	e := newEnv(t, netsim.Profile{RTT: time.Millisecond})
	blob := make([]byte, 32<<10)
	rand.New(rand.NewSource(4)).Read(blob)
	e.store.Put("/f", blob)
	ctx := context.Background()

	f, err := e.client.Open(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			off := int64(i) * 1000
			buf := make([]byte, 100)
			if _, err := f.ReadAt(ctx, buf, off); err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
			if !bytes.Equal(buf, blob[off:off+100]) {
				t.Errorf("read %d content mismatch", i)
			}
		}(i)
	}
	wg.Wait()
	if e.net.Dials() != 1 {
		t.Fatalf("dials = %d, want 1", e.net.Dials())
	}
}

func TestServerDownGivesError(t *testing.T) {
	e := newEnv(t, netsim.Ideal())
	e.store.Put("/f", []byte("x"))
	ctx := context.Background()
	f, err := e.client.Open(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	e.net.SetDown("xrd:1094", true)
	if _, err := f.ReadAt(ctx, make([]byte, 1), 0); err == nil {
		t.Fatal("expected error after server death")
	}
	// Recovery: server back up, client reconnects lazily.
	e.net.SetDown("xrd:1094", false)
	f2, err := e.client.Open(ctx, "/f")
	if err != nil {
		t.Fatalf("reconnect: %v", err)
	}
	if _, err := f2.ReadAt(ctx, make([]byte, 1), 0); err != nil {
		t.Fatalf("read after reconnect: %v", err)
	}
}

func TestContextCancelDuringCall(t *testing.T) {
	e := newEnv(t, netsim.Profile{RTT: 200 * time.Millisecond})
	e.store.Put("/f", []byte("x"))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := e.client.Open(ctx, "/f")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestHandshakeRejectsGarbage(t *testing.T) {
	e := newEnv(t, netsim.Ideal())
	c, err := e.net.Dial("xrd:1094")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write([]byte("GET / HTTP/1.1\r\n"))
	// Server must close the connection without a handshake reply.
	c.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	buf := make([]byte, 8)
	if _, err := io.ReadFull(c, buf); err == nil {
		t.Fatal("server answered a garbage handshake")
	}
}

// TestLoginRequired: data operations before login are refused.
func TestLoginRequired(t *testing.T) {
	e := newEnv(t, netsim.Ideal())
	e.store.Put("/f", []byte("x"))
	c, err := e.net.Dial("xrd:1094")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var hs [8]byte
	binaryBigEndianPutUint32(hs[0:4], Magic)
	binaryBigEndianPutUint32(hs[4:8], Version)
	c.Write(hs[:])
	io.ReadFull(c, hs[:])
	// Stat without login.
	writeRequest(c, &requestFrame{Stream: 1, Op: ReqStat, Payload: []byte("/f")})
	resp, err := readResponse(c)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusBadRequest {
		t.Fatalf("unauthenticated stat status = %d", resp.Status)
	}
}

func binaryBigEndianPutUint32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}
