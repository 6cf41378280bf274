package httpserv

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"testing/iotest"
	"time"

	"godavix/internal/digest"
	"godavix/internal/storage"
)

// The gateway hashes every upload body while it streams in and combines the
// chunk sums at commit, so nothing re-reads the object. The property that
// must survive that: the digest a PUT's 201 advertises and the store records
// is always the digest of the bytes committed, under the algorithm the
// upload negotiated, whatever order, overlap or failure the chunks arrived
// with.

// putAlgos are the algorithms an upload can negotiate, each with the
// Want-Digest that asks for it: none at all gets crc32c.
var putAlgos = []struct {
	algo digest.Algo
	want string
}{{digest.CRC32C, ""}, {digest.Adler32, "adler32"}}

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
	want  string // Want-Digest of every chunk, "" for none
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
	want := ""
	if a.want != "" {
		want = "Want-Digest: " + a.want + "\r\n"
	}
	fmt.Fprintf(conn, "PUT %s HTTP/1.1\r\nHost: gw\r\nX-Upload-Id: %s\r\n%sContent-Range: bytes %d-%d/%d\r\nContent-Length: %d\r\n\r\n",
		a.key.path, a.key.id, want, off, off+n-1, a.total, n)
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
			for _, pa := range putAlgos {
				t.Run(string(pa.algo), func(t *testing.T) {
					srv, ts, st := newTestServer(t, Options{})
					a := &assembly{
						t: t, srv: srv, addr: ts.Listener.Addr().String(),
						key: partialKey{path: "/obj", id: "u1"}, total: len(blob), want: pa.want,
					}
					code, advertised := row.run(a)
					if code != http.StatusCreated {
						t.Fatalf("committing chunk: status %d, want 201", code)
					}
					checkStoredDigest(t, ts, st, "/obj", pa.algo, row.want, advertised)
					a.srv.partialMu.Lock()
					rehashed := a.pu.dirty
					a.srv.partialMu.Unlock()
					if rehashed != row.rehash {
						t.Errorf("commit hashed the whole buffer: %v, want %v", rehashed, row.rehash)
					}
				})
			}
		})
	}
}

// checkStoredDigest asserts the digest property for one committed object:
// the bytes are want, and the PUT's Digest, the store's checksum and a GET's
// X-Checksum all name the digest under algo of exactly those bytes.
func checkStoredDigest(t *testing.T, ts *httptest.Server, st storage.Store, p string, algo digest.Algo, want []byte, advertised string) {
	t.Helper()
	got, _, err := st.Get(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stored bytes differ from the bytes sent (%d vs %d)", len(got), len(want))
	}
	sum := digest.Sum32(algo, got)
	if want := fmt.Sprintf("%s=%08x", algo, sum); advertised != want {
		t.Errorf("201 Digest = %q, want %q", advertised, want)
	}
	inf, err := st.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := digest.Format32(algo, sum); inf.Checksum != want {
		t.Errorf("Stat checksum = %q, want %q", inf.Checksum, want)
	}
	resp, err := http.Get(ts.URL + p)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if want := digest.Format32(algo, sum); resp.Header.Get("X-Checksum") != want {
		t.Errorf("GET X-Checksum = %q, want %q", resp.Header.Get("X-Checksum"), want)
	}
}

// TestWholePutDigestIsOfCommittedBytes: a whole-body PUT is hashed while it
// is read, under the algorithm it negotiated, whichever way it is framed,
// and a body that ends early commits nothing.
func TestWholePutDigestIsOfCommittedBytes(t *testing.T) {
	blob := make([]byte, 2*sumPiece+999)
	rand.New(rand.NewSource(18)).Read(blob)
	srv, ts, st := newTestServer(t, Options{})

	for _, pa := range putAlgos {
		for _, framing := range []string{"length", "chunked"} {
			var body io.Reader = bytes.NewReader(blob)
			if framing == "chunked" {
				body = struct{ io.Reader }{body} // length unknown to net/http
			}
			p := "/whole-" + framing + "-" + string(pa.algo)
			req, _ := http.NewRequest(http.MethodPut, ts.URL+p, body)
			if pa.want != "" {
				req.Header.Set("Want-Digest", pa.want)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("%s PUT: status %d, want 201", framing, resp.StatusCode)
			}
			checkStoredDigest(t, ts, st, p, pa.algo, blob, resp.Header.Get("Digest"))
		}
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

// TestWantDigestQValues: the gateway answers Want-Digest by its RFC 7231
// weights, not with whichever algorithm is listed first — on GET and HEAD,
// whole and ranged, and, for the algorithms an upload can be summed under,
// on a PUT's commit.
func TestWantDigestQValues(t *testing.T) {
	_, ts, st := newTestServer(t, Options{})
	blob := rangeBlob(1000)
	st.Put("/f", blob)
	rows := []struct {
		want string
		algo digest.Algo // "" for no Digest
	}{
		{"adler32;q=0, crc32c", digest.CRC32C},
		{"md5;q=0.1, adler32", digest.Adler32},
		{digest.Preference, digest.CRC32C},
		{"crc32c;q=0.4, Adler32;Q=0.5", digest.Adler32},
		{"crc32c;q=1.0001, md5", digest.MD5},
		{"adler32", digest.Adler32},
		{"crc32c;q=0, adler32;q=0", ""},
	}
	for _, row := range rows {
		for _, method := range []string{http.MethodGet, http.MethodHead} {
			for _, span := range [][2]int{{0, len(blob)}, {10, 100}} {
				req, _ := http.NewRequest(method, ts.URL+"/f", nil)
				req.Header.Set("Want-Digest", row.want)
				if span[0] != 0 {
					req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", span[0], span[1]-1))
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				want := ""
				if row.algo != "" {
					h, _ := digest.New(row.algo)
					h.Write(blob[span[0]:span[1]])
					want = fmt.Sprintf("%s=%x", row.algo, h.Sum(nil))
				}
				if got := resp.Header.Get("Digest"); got != want {
					t.Errorf("%s %v with Want-Digest %q: Digest %q, want %q", method, span, row.want, got, want)
				}
			}
		}
		if !digest.Combinable(row.algo) {
			continue
		}
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/put", bytes.NewReader(blob))
		req.Header.Set("Want-Digest", row.want)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got, want := resp.Header.Get("Digest"), fmt.Sprintf("%s=%08x", row.algo, digest.Sum32(row.algo, blob)); got != want {
			t.Errorf("PUT with Want-Digest %q: Digest %q, want %q", row.want, got, want)
		}
	}
}

// recordedStore reports a checksum its bytes do not have, so a Digest shows
// whether it came from the store's record or from hashing the body.
type recordedStore struct{ storage.Store }

const recordedChecksum = "crc32c:0badf00d"

func (s recordedStore) Get(p string) ([]byte, storage.Info, error) {
	data, inf, err := s.Store.Get(p)
	inf.Checksum = recordedChecksum
	return data, inf, err
}

// TestWholeObjectDigestIsTheStoredChecksum: a whole-object GET or HEAD that
// negotiates the algorithm the object is stored under is answered from the
// stored checksum — no request hashes the object — while a range, or
// another algorithm, is hashed over the bytes served.
func TestWholeObjectDigestIsTheStoredChecksum(t *testing.T) {
	st := recordedStore{storage.NewMemStore()}
	ts := httptest.NewServer(New(st, Options{}))
	t.Cleanup(ts.Close)
	blob := rangeBlob(1000)
	st.Put("/f", blob)

	rows := []struct {
		method, want, rng, digest string
	}{
		{http.MethodHead, "crc32c", "", "crc32c=0badf00d"},
		{http.MethodGet, digest.Preference, "", "crc32c=0badf00d"},
		{http.MethodGet, "crc32c", "bytes=0-999", "crc32c=0badf00d"},
		{http.MethodGet, "crc32c", "bytes=10-99", fmt.Sprintf("crc32c=%08x", digest.Sum32(digest.CRC32C, blob[10:100]))},
		{http.MethodHead, "adler32", "", fmt.Sprintf("adler32=%08x", digest.Sum32(digest.Adler32, blob))},
	}
	for _, row := range rows {
		req, _ := http.NewRequest(row.method, ts.URL+"/f", nil)
		req.Header.Set("Want-Digest", row.want)
		if row.rng != "" {
			req.Header.Set("Range", row.rng)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get("Digest"); got != row.digest {
			t.Errorf("%s %q Want-Digest %q: Digest %q, want %q", row.method, row.rng, row.want, got, row.digest)
		}
		if got := resp.Header.Get("X-Checksum"); got != recordedChecksum {
			t.Errorf("%s %q: X-Checksum %q, want the stored %q", row.method, row.rng, got, recordedChecksum)
		}
	}
}
