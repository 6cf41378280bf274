package httpserv

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/adler32"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"testing/iotest"
	"time"

	"godavix/internal/storage"
)

// The gateway hashes every upload body while it streams in and combines the
// chunk sums at commit, so nothing re-reads the object. The property that
// must survive that: the digest a PUT's 201 advertises and the store records
// is always the adler32 of the bytes committed, whatever order, overlap or
// failure the chunks arrived with.

// digestChunk is the chunk size of the assembly tests: not a multiple of
// sumPiece, so every chunk is hashed in several pieces with a ragged tail.
const digestChunk = sumPiece + 4321

// assembly drives one ranged upload against a test server, from raw
// connections so a request can be held open or cut.
type assembly struct {
	t     *testing.T
	srv   *Server
	addr  string
	key   partialKey
	total int
	// pu is the assembly, remembered from the moment it exists: the commit
	// removes it from the server's table but not from under this pointer.
	pu *partialUpload
}

// chunkReq is one ranged PUT whose headers are out and whose body is not.
type chunkReq struct {
	a    *assembly
	conn net.Conn
}

// start opens a ranged PUT promising n bytes at off and sends its headers.
func (a *assembly) start(off, n int) *chunkReq {
	a.t.Helper()
	conn, err := net.Dial("tcp", a.addr)
	if err != nil {
		a.t.Fatal(err)
	}
	a.t.Cleanup(func() { conn.Close() })
	fmt.Fprintf(conn, "PUT %s HTTP/1.1\r\nHost: gw\r\nX-Upload-Id: %s\r\nContent-Range: bytes %d-%d/%d\r\nContent-Length: %d\r\n\r\n",
		a.key.path, a.key.id, off, off+n-1, a.total, n)
	return &chunkReq{a: a, conn: conn}
}

// send streams body bytes of the request.
func (r *chunkReq) send(b []byte) {
	r.a.t.Helper()
	if _, err := r.conn.Write(b); err != nil {
		r.a.t.Fatal(err)
	}
}

// finish reads the response: its status and Digest header.
func (r *chunkReq) finish() (int, string) {
	r.a.t.Helper()
	resp, err := http.ReadResponse(bufio.NewReader(r.conn), nil)
	if err != nil {
		r.a.t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Digest")
}

// put sends one whole chunk and returns the response status and Digest.
func (a *assembly) put(off int, body []byte) (int, string) {
	a.t.Helper()
	r := a.start(off, len(body))
	r.send(body)
	code, digest := r.finish()
	a.state(func(*partialUpload) {}) // remembers the assembly once it exists
	return code, digest
}

// accept sends one whole chunk that must be received without committing.
func (a *assembly) accept(off int, body []byte) {
	a.t.Helper()
	if code, _ := a.put(off, body); code != http.StatusAccepted {
		a.t.Fatalf("chunk at %d: status %d, want 202", off, code)
	}
}

// state reads the live assembly under the server's lock: nil once it has
// been committed or before its first chunk registered.
func (a *assembly) state(read func(pu *partialUpload)) {
	a.srv.partialMu.Lock()
	defer a.srv.partialMu.Unlock()
	pu := a.srv.partials[a.key]
	if pu != nil {
		a.pu = pu
	}
	read(pu)
}

// await polls the assembly until cond holds.
func (a *assembly) await(what string, cond func(pu *partialUpload) bool) {
	a.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := false
		a.state(func(pu *partialUpload) { ok = cond(pu) })
		if ok {
			return
		}
		if time.Now().After(deadline) {
			a.t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRangedPutDigestIsOfCommittedBytes(t *testing.T) {
	const n = digestChunk
	blob := make([]byte, 3*n)
	rand.New(rand.NewSource(16)).Read(blob)
	other := make([]byte, n) // what a retry "with different bytes" carries
	rand.New(rand.NewSource(17)).Read(other)
	c0, c1, c2 := blob[:n], blob[n:2*n], blob[2*n:]

	// splice is blob with b written over it at off.
	splice := func(off int, b []byte) []byte {
		out := append([]byte(nil), blob...)
		copy(out[off:], b)
		return out
	}

	rows := []struct {
		name string
		// rehash is whether the commit must fall back to hashing the whole
		// buffer: true exactly when some byte may have been written twice.
		rehash bool
		// want is what the chunks, landing in the order run sends them,
		// leave in the store.
		want []byte
		// run sends the chunks and returns the committing response.
		run func(a *assembly) (int, string)
	}{
		{"in order", false, blob, func(a *assembly) (int, string) {
			a.accept(0, c0)
			a.accept(n, c1)
			return a.put(2*n, c2)
		}},
		{"reversed", false, blob, func(a *assembly) (int, string) {
			a.accept(2*n, c2)
			a.accept(n, c1)
			return a.put(0, c0)
		}},
		{"identical duplicate", true, blob, func(a *assembly) (int, string) {
			a.accept(0, c0)
			a.accept(n, c1)
			a.accept(n, c1)
			return a.put(2*n, c2)
		}},
		{"retry with different bytes", true, splice(n, other), func(a *assembly) (int, string) {
			a.accept(0, c0)
			a.accept(n, c1)
			a.accept(n, other)
			return a.put(2*n, c2)
		}},
		{"overlapping ranges", true, splice(n, other[:n/2]), func(a *assembly) (int, string) {
			a.accept(0, blob[:n+n/2])
			// Rewrites the first half of chunk 1 with different bytes.
			return a.put(n, append(append([]byte(nil), other[:n/2]...), blob[n+n/2:]...))
		}},
		{"two writers of one range at once", true, splice(n, other), func(a *assembly) (int, string) {
			a.accept(0, c0)
			first := a.start(n, n)
			a.await("the first writer to register", func(pu *partialUpload) bool { return pu.active == 1 })
			// The second writer's whole request is on its way while the
			// first still holds the range; it must wait its turn, not
			// interleave, and being last it is the one that sticks.
			second := a.start(n, n)
			sent := make(chan struct{})
			go func() {
				defer close(sent)
				second.conn.Write(other)
			}()
			a.await("the second writer to register", func(pu *partialUpload) bool { return pu.active == 2 })
			a.state(func(pu *partialUpload) {
				if len(pu.streaming) != 1 {
					a.t.Errorf("%d bodies streaming into one range, want 1", len(pu.streaming))
				}
			})
			first.send(c1)
			if code, _ := first.finish(); code != http.StatusAccepted {
				a.t.Fatalf("first writer: status %d, want 202", code)
			}
			<-sent
			if code, _ := second.finish(); code != http.StatusAccepted {
				a.t.Fatalf("second writer: status %d, want 202", code)
			}
			return a.put(2*n, c2)
		}},
		{"duplicate still streaming at commit", true, splice(n, other), func(a *assembly) (int, string) {
			a.accept(0, c0)
			a.accept(n, c1)
			late := a.start(n, n)
			a.await("the held chunk to register", func(pu *partialUpload) bool { return pu.active == 1 })
			type verdict struct {
				code   int
				digest string
			}
			last := a.start(2*n, n)
			last.send(c2)
			done := make(chan verdict, 1)
			go func() {
				code, digest := last.finish()
				done <- verdict{code, digest}
			}()
			// The commit is decided; it must now wait for the late body.
			a.await("the commit decision", func(pu *partialUpload) bool { return pu == nil })
			select {
			case v := <-done:
				a.t.Fatalf("commit answered %d before the in-flight duplicate finished", v.code)
			case <-time.After(20 * time.Millisecond):
			}
			late.send(other)
			if code, _ := late.finish(); code != http.StatusAccepted {
				a.t.Fatalf("late writer: status %d, want 202", code)
			}
			v := <-done
			return v.code, v.digest
		}},
		{"cut chunk, then its retry", true, blob, func(a *assembly) (int, string) {
			a.accept(0, c0)
			cut := a.start(n, n)
			cut.send(other[:n/2])
			a.await("the cut chunk to register", func(pu *partialUpload) bool { return pu.active == 1 })
			cut.conn.Close()
			a.await("the cut chunk to fail", func(pu *partialUpload) bool { return pu.active == 0 })
			a.state(func(pu *partialUpload) {
				if spans := pu.sums.Spans(); len(spans) != 1 || spans[0].Off != 0 {
					a.t.Errorf("cut chunk left a sum behind: %+v", spans)
				}
				if pu.covered != n {
					a.t.Errorf("cut chunk counted as coverage: %d bytes covered, want %d", pu.covered, n)
				}
			})
			a.accept(n, c1)
			return a.put(2*n, c2)
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			srv, ts, st := newTestServer(t, Options{})
			a := &assembly{
				t: t, srv: srv, addr: ts.Listener.Addr().String(),
				key: partialKey{path: "/obj", id: "u1"}, total: len(blob),
			}
			code, advertised := row.run(a)
			if code != http.StatusCreated {
				t.Fatalf("committing chunk: status %d, want 201", code)
			}
			checkStoredDigest(t, ts, st, "/obj", row.want, advertised)
			a.srv.partialMu.Lock()
			rehashed := a.pu.dirty
			a.srv.partialMu.Unlock()
			if rehashed != row.rehash {
				t.Errorf("commit hashed the whole buffer: %v, want %v", rehashed, row.rehash)
			}
		})
	}
}

// checkStoredDigest asserts the digest property for one committed object:
// the bytes are want, and the PUT's Digest, the store's checksum and a GET's
// X-Checksum all name the adler32 of exactly those bytes.
func checkStoredDigest(t *testing.T, ts *httptest.Server, st storage.Store, p string, want []byte, advertised string) {
	t.Helper()
	got, _, err := st.Get(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stored bytes differ from the bytes sent (%d vs %d)", len(got), len(want))
	}
	sum := adler32.Checksum(got)
	if want := fmt.Sprintf("adler32=%08x", sum); advertised != want {
		t.Errorf("201 Digest = %q, want %q", advertised, want)
	}
	inf, err := st.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("adler32:%08x", sum); inf.Checksum != want {
		t.Errorf("Stat checksum = %q, want %q", inf.Checksum, want)
	}
	resp, err := http.Get(ts.URL + p)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if want := fmt.Sprintf("adler32:%08x", sum); resp.Header.Get("X-Checksum") != want {
		t.Errorf("GET X-Checksum = %q, want %q", resp.Header.Get("X-Checksum"), want)
	}
}

// TestWholePutDigestIsOfCommittedBytes: a whole-body PUT is hashed while it
// is read, whichever way it is framed, and a body that ends early commits
// nothing.
func TestWholePutDigestIsOfCommittedBytes(t *testing.T) {
	blob := make([]byte, 2*sumPiece+999)
	rand.New(rand.NewSource(18)).Read(blob)
	srv, ts, st := newTestServer(t, Options{})

	for _, framing := range []string{"length", "chunked"} {
		var body io.Reader = bytes.NewReader(blob)
		if framing == "chunked" {
			body = struct{ io.Reader }{body} // length unknown to net/http
		}
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/whole-"+framing, body)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s PUT: status %d, want 201", framing, resp.StatusCode)
		}
		checkStoredDigest(t, ts, st, "/whole-"+framing, blob, resp.Header.Get("Digest"))
	}

	// A body cut half way, under either framing, through the handler itself
	// so the verdict is in when ServeHTTP returns.
	for framing, length := range map[string]int64{"length": int64(len(blob)), "chunked": -1} {
		cut := io.MultiReader(bytes.NewReader(blob[:len(blob)/2]), iotest.ErrReader(io.ErrUnexpectedEOF))
		req := httptest.NewRequest(http.MethodPut, "/cut-"+framing, cut)
		req.ContentLength = length
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("truncated %s body: status %d, want 400", framing, w.Code)
		}
		if _, err := st.Stat("/cut-" + framing); err == nil {
			t.Fatalf("truncated %s body was committed", framing)
		}
	}
}

// BenchmarkRangedPutCommit is the gateway's share of a multi-stream upload:
// 64 MiB arriving as 8 × 8 MiB Content-Range PUTs through the handler, the
// last of which commits. Each byte should be written once and hashed once.
func BenchmarkRangedPutCommit(b *testing.B) {
	const total, chunk = 64 << 20, 8 << 20
	blob := make([]byte, total)
	rand.New(rand.NewSource(19)).Read(blob)
	srv := New(storage.NewMemStore(), Options{})
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off < total; off += chunk {
			req := httptest.NewRequest(http.MethodPut, "/bench/obj", bytes.NewReader(blob[off:off+chunk]))
			req.Header.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", off, off+chunk-1, total))
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, req)
			if want := map[bool]int{false: http.StatusAccepted, true: http.StatusCreated}[off+chunk == total]; w.Code != want {
				b.Fatalf("chunk at %d: status %d, want %d", off, w.Code, want)
			}
		}
	}
}
