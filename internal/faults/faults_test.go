package faults

import (
	"bytes"
	"context"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"godavix/internal/httpserv"
	"godavix/internal/storage"
)

// newGateway serves a real httpserv gateway behind a Layer.
func newGateway(t *testing.T) (*Layer, *httpserv.Server, *httptest.Server, storage.Store) {
	t.Helper()
	st := storage.NewMemStore()
	srv := httpserv.New(st, httpserv.Options{})
	l := New(srv)
	ts := httptest.NewServer(l)
	t.Cleanup(ts.Close)
	return l, srv, ts, st
}

// response is what a GET delivered before its end or its cut.
type response struct {
	status                          int
	contentLength                   int64
	contentRange, digest, xChecksum string
	body                            []byte
	err                             error // nil when the body arrived whole
}

// get sends a GET for /f on a connection of its own, so a cut never
// reaches the next request, asking for the adler32 Digest of what it
// carries.
func get(t *testing.T, ts *httptest.Server, rng string) response {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/f", nil)
	req.Close = true
	req.Header.Set("Want-Digest", "adler32")
	if rng != "" {
		req.Header.Set("Range", rng)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return response{
		status: resp.StatusCode, contentLength: resp.ContentLength,
		contentRange: resp.Header.Get("Content-Range"), digest: resp.Header.Get("Digest"),
		xChecksum: resp.Header.Get("X-Checksum"), body: body, err: err,
	}
}

func TestFaultStatusInjection(t *testing.T) {
	l, srv, ts, st := newGateway(t)
	st.Put("/f", []byte("x"))
	l.Set("/f", Fault{Status: http.StatusServiceUnavailable, Remaining: 2})

	for i := 0; i < 2; i++ {
		resp, _ := http.Get(ts.URL + "/f")
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("request %d status = %d", i, resp.StatusCode)
		}
	}
	// Fault expired after two uses.
	resp, _ := http.Get(ts.URL + "/f")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after fault expiry = %d", resp.StatusCode)
	}
	// The Layer counts all three; the two it answered never reached the
	// gateway.
	if got, gw := l.Requests("GET"), srv.RequestsByMethod("GET"); got != 3 || gw != 1 {
		t.Fatalf("GETs counted by the Layer %d and the gateway %d, want 3 and 1", got, gw)
	}
}

func TestFaultDelay(t *testing.T) {
	l, _, ts, st := newGateway(t)
	st.Put("/slow", []byte("x"))
	l.Set("/slow", Fault{Delay: 50 * time.Millisecond})
	start := time.Now()
	resp, _ := http.Get(ts.URL + "/slow")
	resp.Body.Close()
	if time.Since(start) < 50*time.Millisecond {
		t.Fatal("delay fault not applied")
	}
}

func TestWildcardFault(t *testing.T) {
	l, _, ts, st := newGateway(t)
	st.Put("/a", []byte("x"))
	l.Set("*", Fault{Status: 500, Remaining: 1})
	resp, _ := http.Get(ts.URL + "/a")
	resp.Body.Close()
	if resp.StatusCode != 500 {
		t.Fatalf("wildcard fault status = %d", resp.StatusCode)
	}
	l.Clear("*")
	resp, _ = http.Get(ts.URL + "/a")
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("after clear = %d", resp.StatusCode)
	}
}

// TestFaultDropAfterGet checks the DropAfter fault cuts a download
// mid-body after exactly N bytes.
func TestFaultDropAfterGet(t *testing.T) {
	l, _, ts, st := newGateway(t)
	if err := st.Put("/f", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	l.Set("/f", Fault{DropAfter: 4})
	r := get(t, ts, "")
	if r.contentLength != 10 {
		t.Fatalf("Content-Length = %d, want 10 (full size declared)", r.contentLength)
	}
	if r.err == nil {
		t.Fatalf("read completed with %d bytes, want mid-body cut", len(r.body))
	}
	if len(r.body) != 4 {
		t.Fatalf("received %d bytes before cut, want 4", len(r.body))
	}
}

// TestDropAfterCutsRangedGet: a drop on a ranged GET cuts the gateway's
// own 206 after N bytes of the range, so a client resuming a chunk sees
// bytes of that chunk arrive before the cut.
func TestDropAfterCutsRangedGet(t *testing.T) {
	l, _, ts, st := newGateway(t)
	if err := st.Put("/f", []byte("0123456789abcdefghij")); err != nil {
		t.Fatal(err)
	}
	l.Set("/f", Fault{DropAfter: 4})
	r := get(t, ts, "bytes=10-15")
	if r.status != http.StatusPartialContent || r.contentRange != "bytes 10-15/20" || r.contentLength != 6 {
		t.Fatalf("status %d, Content-Range %q, Content-Length %d; want 206, bytes 10-15/20, 6",
			r.status, r.contentRange, r.contentLength)
	}
	if string(r.body) != "abcd" || r.err == nil {
		t.Fatalf("body %q, err %v; want \"abcd\" then a cut", r.body, r.err)
	}
}

// TestFaultBytesAgainstStore holds DropAfter and CorruptXOR to the stored
// object byte for byte, on a whole GET and on a single-range GET, and
// checks the integrity headers still describe the pristine bytes.
func TestFaultBytesAgainstStore(t *testing.T) {
	obj := []byte("0123456789abcdefghijklmnopqrstuv")
	for _, span := range []struct {
		name       string
		rng        string
		start, end int64
	}{
		{"whole", "", 0, int64(len(obj))},
		{"range", "bytes=8-19", 8, 20},
	} {
		flipped := func(at int64) []byte {
			b := bytes.Clone(obj[span.start:span.end])
			b[at-span.start] ^= 0xff
			return b
		}
		pristine := obj[span.start:span.end]
		for _, tc := range []struct {
			name string
			f    Fault
			want []byte
			cut  bool
		}{
			{"corrupt_at_start", Fault{CorruptXOR: 0xff, CorruptAt: span.start}, flipped(span.start), false},
			{"corrupt_at_end", Fault{CorruptXOR: 0xff, CorruptAt: span.end - 1}, flipped(span.end - 1), false},
			{"corrupt_before", Fault{CorruptXOR: 0xff, CorruptAt: span.start - 1}, pristine, false},
			{"corrupt_after", Fault{CorruptXOR: 0xff, CorruptAt: span.end}, pristine, false},
			{"drop_after_1", Fault{DropAfter: 1}, pristine[:1], true},
			{"drop_after_len", Fault{DropAfter: span.end - span.start}, pristine, false},
		} {
			t.Run(span.name+"/"+tc.name, func(t *testing.T) {
				l, _, ts, st := newGateway(t)
				if err := st.Put("/f", obj); err != nil {
					t.Fatal(err)
				}
				clean := get(t, ts, span.rng)
				if clean.err != nil || !bytes.Equal(clean.body, pristine) || clean.digest == "" {
					t.Fatalf("fault-free GET: body %q, Digest %q, err %v", clean.body, clean.digest, clean.err)
				}
				l.Set("/f", tc.f)
				r := get(t, ts, span.rng)
				if !bytes.Equal(r.body, tc.want) || (r.err != nil) != tc.cut {
					t.Fatalf("body %q, err %v; want %q, cut %v", r.body, r.err, tc.want, tc.cut)
				}
				if r.status != clean.status || r.contentRange != clean.contentRange ||
					r.digest != clean.digest || r.xChecksum != clean.xChecksum {
					t.Fatalf("status %d, Content-Range %q, Digest %q, X-Checksum %q; want the fault-free %d, %q, %q, %q",
						r.status, r.contentRange, r.digest, r.xChecksum,
						clean.status, clean.contentRange, clean.digest, clean.xChecksum)
				}
			})
		}
	}
}

// TestCorruptRefusesMultiRange: a corruption fault cannot place its byte
// in a multipart body, so it answers 500 rather than let the GET pass
// unharmed.
func TestCorruptRefusesMultiRange(t *testing.T) {
	l, srv, ts, st := newGateway(t)
	st.Put("/f", []byte("0123456789"))
	l.Set("/f", Fault{CorruptXOR: 1, CorruptAt: 2})
	if r := get(t, ts, "bytes=0-1,4-5"); r.status != http.StatusInternalServerError {
		t.Fatalf("multi-range GET under a corruption fault: status %d, want 500", r.status)
	}
	if gw := srv.RequestsByMethod("GET"); gw != 0 {
		t.Fatalf("gateway served %d GETs, want 0", gw)
	}
}

// TestLayerKeepsFlusher: a handler behind the Layer that flushes a partial
// body finds http.Flusher, the flush reaches the server's writer, and the
// exchange still records the status it wrote.
func TestLayerKeepsFlusher(t *testing.T) {
	l := New(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("part"))
		if f, ok := w.(http.Flusher); !ok {
			t.Error("the Layer hides http.Flusher")
		} else {
			f.Flush()
		}
	}))
	rec := httptest.NewRecorder()
	l.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/f", nil))
	if !rec.Flushed {
		t.Error("the flush did not reach the server's writer")
	}
	if rec.Body.String() != "part" {
		t.Errorf("body %q, want %q", rec.Body.String(), "part")
	}
	if x := l.Exchanges(); len(x) != 1 || x[0].Status != http.StatusOK || !x[0].Done {
		t.Errorf("exchanges %v, want one done with status 200", x)
	}
}

// TestExchangesRecordEveryArrival: the Layer records each request as it
// arrives, faulted or not, with its headers sorted and masked and its body
// hashed, and completes the record with the status once the handler
// returns. A request still being served shows as not Done.
func TestExchangesRecordEveryArrival(t *testing.T) {
	l, _, ts, st := newGateway(t)
	st.Put("/f", []byte("x"))
	body := []byte("payload")
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/up", bytes.NewReader(body))
	req.Header.Set("X-Upload-Id", "random-id")
	req.Header.Set("Want-Digest", "adler32")
	if resp, err := ts.Client().Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	l.Set("/f", Fault{Status: http.StatusServiceUnavailable, Remaining: 1})
	get(t, ts, "bytes=0-0")
	l.Set("/f", Fault{Abort: true, Remaining: 1})
	http.Get(ts.URL + "/f")

	l.Set("/slow", Fault{Delay: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/slow", nil)
		if resp, err := ts.Client().Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	for len(l.Exchanges()) < 4 {
		time.Sleep(time.Millisecond)
	}
	if x := l.Exchanges()[3]; x.Done || !strings.HasSuffix(x.String(), " | pending") {
		t.Errorf("a delayed request reads %q, want it pending", x)
	}
	cancel()
	<-done
	for !l.Exchanges()[3].Done {
		time.Sleep(time.Millisecond)
	}

	h := fnv.New64a()
	h.Write(body)
	host := strings.TrimPrefix(ts.URL, "http://")
	want := []Exchange{
		{Host: host, Method: "PUT", Target: "/up", Header: []string{
			"Accept-Encoding: gzip", "Content-Length: 7", "User-Agent: Go-http-client/1.1",
			"Want-Digest: adler32", "X-Upload-Id: *",
		}, BodyLen: 7, BodySum: h.Sum64(), Status: http.StatusCreated},
		{Host: host, Method: "GET", Target: "/f", Header: []string{
			"Connection: close", "Range: bytes=0-0", "User-Agent: Go-http-client/1.1", "Want-Digest: adler32",
		}, Status: http.StatusServiceUnavailable},
		{Host: host, Method: "GET", Target: "/f", Header: []string{"Accept-Encoding: gzip", "User-Agent: Go-http-client/1.1"}},
		{Host: host, Method: "GET", Target: "/slow", Header: []string{"Accept-Encoding: gzip", "User-Agent: Go-http-client/1.1"}},
	}
	got := l.Exchanges()
	if len(got) != len(want) {
		t.Fatalf("%d exchanges recorded, want %d", len(got), len(want))
	}
	for i := range want {
		want[i].Done = true
		if i > 0 {
			want[i].BodySum = fnv.New64a().Sum64()
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("exchange %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	if n := l.Requests("GET"); n != 3 {
		t.Errorf("Requests(GET) = %d, want 3: a count over the recording", n)
	}
}
