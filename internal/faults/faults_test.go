package faults

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
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
