package xrootd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"strings"
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

// BenchmarkChunkCodec measures readv chunk-list encode+decode.
func BenchmarkChunkCodec(b *testing.B) {
	chunks := make([]Chunk, 128)
	for i := range chunks {
		chunks[i] = Chunk{Handle: 1, Offset: int64(i) * 4096, Length: 256}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decodeChunks(encodeChunks(chunks)); err != nil {
			b.Fatal(err)
		}
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

// loggedInConn dials the env's server, handshakes and logs in, returning
// the raw connection for hand-built frames.
func loggedInConn(t *testing.T, e *env) net.Conn {
	t.Helper()
	c, err := e.net.Dial("xrd:1094")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	var hs [8]byte
	binary.BigEndian.PutUint32(hs[0:4], Magic)
	binary.BigEndian.PutUint32(hs[4:8], Version)
	if _, err := c.Write(hs[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, hs[:]); err != nil {
		t.Fatal(err)
	}
	if resp := exchange(t, c, &requestFrame{Op: ReqLogin}); resp.Status != StatusOK {
		t.Fatalf("login status = %d", resp.Status)
	}
	return c
}

// exchange writes one request frame and reads its response.
func exchange(t *testing.T, c net.Conn, req *requestFrame) *responseFrame {
	t.Helper()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeRequest(c, req); err != nil {
		t.Fatal(err)
	}
	resp, err := readResponse(c)
	if err != nil {
		t.Fatalf("op %d: %v", req.Op, err)
	}
	return resp
}

// TestReadVRejectsBadChunkLengths: a negative chunk length, or lengths
// whose sum passes MaxFrame only by overflowing, get StatusBadRequest, and
// the server goes on serving the connection.
func TestReadVRejectsBadChunkLengths(t *testing.T) {
	e := newEnv(t, netsim.Ideal())
	blob := []byte("0123456789")
	e.store.Put("/f", blob)
	c := loggedInConn(t, e)
	open := exchange(t, c, &requestFrame{Op: ReqOpen, Payload: []byte("/f")})
	if open.Status != StatusOK {
		t.Fatalf("open status = %d", open.Status)
	}
	fh := binary.BigEndian.Uint32(open.Payload[0:4])

	for _, chunks := range [][]Chunk{
		{{Handle: fh, Offset: 0, Length: -1}},
		{{Handle: fh, Offset: 0, Length: 4}, {Handle: fh, Offset: 0, Length: -4}},
		{{Handle: fh, Offset: 0, Length: math.MaxInt32}, {Handle: fh, Offset: 0, Length: math.MaxInt32}},
	} {
		resp := exchange(t, c, &requestFrame{Op: ReqReadV, Payload: encodeChunks(chunks)})
		if resp.Status != StatusBadRequest || len(resp.Payload) != 0 {
			t.Fatalf("readv %v: status %d, %d payload bytes; want bad request", chunks, resp.Status, len(resp.Payload))
		}
	}
	resp := exchange(t, c, &requestFrame{Op: ReqReadV, Payload: encodeChunks([]Chunk{{Handle: fh, Offset: 2, Length: 3}})})
	if resp.Status != StatusOK || string(resp.Payload) != "234" {
		t.Fatalf("valid readv after rejects: status %d payload %q", resp.Status, resp.Payload)
	}
}

// stallingServer accepts connections on addr, completes the handshake and
// then reads forever without answering.
func stallingServer(t *testing.T, n *netsim.Network, addr string) {
	t.Helper()
	l, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				var hs [8]byte
				if _, err := io.ReadFull(c, hs[:]); err != nil {
					return
				}
				c.Write(hs[:])
				io.Copy(io.Discard, c)
			}()
		}
	}()
}

// TestOpenHonoursContextDuringLogin: a server that handshakes and never
// answers the login must not hold Open past its context — neither the
// caller that dials nor one that arrives while the login is pending.
func TestOpenHonoursContextDuringLogin(t *testing.T) {
	n := netsim.New(netsim.Ideal())
	stallingServer(t, n, "stall:1094")
	c := NewClient(n, "stall:1094")
	defer c.Close()

	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			_, err := c.Open(ctx, "/f")
			errs <- err
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Open = %v, want context.DeadlineExceeded", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Open ignored its context while the login was pending")
		}
	}
}

// TestFailedLoginIsNotASession: after a refused login the next call dials
// again and logs in, instead of sending requests on the refused session.
func TestFailedLoginIsNotASession(t *testing.T) {
	e := newEnv(t, netsim.Ideal())
	e.store.Put("/f", []byte("x"))
	// The first connection's login is refused; later ones reach the server.
	l, err := e.net.Listen("flaky:1094")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for first := true; ; first = false {
			c, err := l.Accept()
			if err != nil {
				return
			}
			if !first {
				go e.server.serveConn(c)
				continue
			}
			go func() {
				defer c.Close()
				var hs [8]byte
				if _, err := io.ReadFull(c, hs[:]); err != nil {
					return
				}
				c.Write(hs[:])
				br := bufio.NewReader(c)
				for {
					req, err := readRequest(br)
					if err != nil {
						return
					}
					writeResponse(c, &responseFrame{Stream: req.Stream, Status: StatusBadRequest})
				}
			}()
		}
	}()
	c := NewClient(e.net, "flaky:1094")
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Open(ctx, "/f"); err == nil || !strings.Contains(err.Error(), "login") {
		t.Fatalf("first Open = %v, want the login refusal", err)
	}
	f, err := c.Open(ctx, "/f")
	if err != nil {
		t.Fatalf("Open after a refused login: %v", err)
	}
	if f.Size() != 1 || e.net.Dials() != 2 {
		t.Fatalf("size %d after %d dials; want 1 byte over a second connection", f.Size(), e.net.Dials())
	}
}
