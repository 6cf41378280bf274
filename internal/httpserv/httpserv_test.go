package httpserv

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"godavix/internal/metalink"
	"godavix/internal/rangev"
	"godavix/internal/storage"
	"godavix/internal/webdav"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server, storage.Store) {
	t.Helper()
	st := storage.NewMemStore()
	srv := New(st, opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, st
}

func TestGetPutDeleteLifecycle(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})

	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/store/f", strings.NewReader("hello dpm"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/store/f")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "hello dpm" {
		t.Fatalf("GET body = %q", body)
	}
	if resp.Header.Get("X-Checksum") == "" || resp.Header.Get("Accept-Ranges") != "bytes" {
		t.Fatalf("headers = %+v", resp.Header)
	}

	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/store/f", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}

	resp, _ = http.Get(ts.URL + "/store/f")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after delete = %d", resp.StatusCode)
	}
}

func TestSingleRange(t *testing.T) {
	_, ts, st := newTestServer(t, Options{})
	st.Put("/f", []byte("0123456789"))

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/f", nil)
	req.Header.Set("Range", "bytes=2-5")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "2345" {
		t.Fatalf("body = %q", body)
	}
	off, length, total, err := rangev.ParseContentRange(resp.Header.Get("Content-Range"))
	if err != nil || off != 2 || length != 4 || total != 10 {
		t.Fatalf("content-range: %d %d %d %v", off, length, total, err)
	}
}

func TestMultiRangeMultipart(t *testing.T) {
	_, ts, st := newTestServer(t, Options{})
	blob := make([]byte, 1000)
	for i := range blob {
		blob[i] = byte(i)
	}
	st.Put("/f", blob)

	ranges := []rangev.Range{{Off: 10, Len: 5}, {Off: 500, Len: 20}, {Off: 990, Len: 10}}
	frames := rangev.Coalesce(ranges, 0)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/f", nil)
	req.Header.Set("Range", rangev.RangeHeader(frames))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	boundary, ok := rangev.IsMultipartByteranges(resp.Header.Get("Content-Type"))
	if !ok {
		t.Fatalf("content-type = %q", resp.Header.Get("Content-Type"))
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := readParts(bytes.NewReader(body), boundary)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	dsts := make([][]byte, len(ranges))
	for i := range dsts {
		dsts[i] = make([]byte, ranges[i].Len)
	}
	if err := rangev.ScatterMultipart(bytes.NewReader(body), boundary, frames, ranges, dsts); err != nil {
		t.Fatal(err)
	}
	for i, r := range ranges {
		want := blob[r.Off:r.End()]
		if string(dsts[i]) != string(want) {
			t.Fatalf("range %d mismatch", i)
		}
	}
}

func TestHeadReportsSize(t *testing.T) {
	_, ts, st := newTestServer(t, Options{})
	st.Put("/f", make([]byte, 12345))
	resp, err := http.Head(ts.URL + "/f")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.ContentLength != 12345 {
		t.Fatalf("content-length = %d", resp.ContentLength)
	}
}

func TestMkcolAndPropfind(t *testing.T) {
	_, ts, st := newTestServer(t, Options{})
	req, _ := http.NewRequest("MKCOL", ts.URL+"/data", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("MKCOL = %d", resp.StatusCode)
	}
	st.Put("/data/a", []byte("1"))
	st.Put("/data/b", []byte("22"))

	req, _ = http.NewRequest("PROPFIND", ts.URL+"/data", nil)
	req.Header.Set("Depth", "1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMultiStatus {
		t.Fatalf("PROPFIND = %d", resp.StatusCode)
	}
	entries, err := webdav.DecodeMultistatusStream(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	// Self + two children.
	if len(entries) != 3 || !entries[0].Dir || entries[1].Href != "/data/a" || entries[2].Size != 2 {
		t.Fatalf("entries = %+v", entries)
	}

	// Depth 0: only self.
	req, _ = http.NewRequest("PROPFIND", ts.URL+"/data", nil)
	req.Header.Set("Depth", "0")
	resp, _ = http.DefaultClient.Do(req)
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	entries, _ = webdav.DecodeMultistatusStream(bytes.NewReader(body))
	if len(entries) != 1 {
		t.Fatalf("depth 0 entries = %d", len(entries))
	}
}

// writeCounter counts the body Writes a handler makes.
type writeCounter struct {
	*httptest.ResponseRecorder
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.ResponseRecorder.Write(p)
}

// TestPropfindBatchesWrites: a 400-child listing reaches the
// ResponseWriter in a handful of 32 KiB batches, not one Write per entry,
// and decodes to the same entries.
func TestPropfindBatchesWrites(t *testing.T) {
	srv, _, st := newTestServer(t, Options{})
	for i := 0; i < 400; i++ {
		st.Put(fmt.Sprintf("/big/f%03d", i), []byte(strings.Repeat("x", i)))
	}
	req := httptest.NewRequest("PROPFIND", "/big", nil)
	req.Header.Set("Depth", "1")
	w := &writeCounter{ResponseRecorder: httptest.NewRecorder()}
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusMultiStatus {
		t.Fatalf("PROPFIND = %d", w.Code)
	}
	body := w.Body.Bytes()
	if limit := (len(body)+32<<10-1)/(32<<10) + 1; w.writes > limit {
		t.Fatalf("%d-byte listing took %d Writes, want at most %d", len(body), w.writes, limit)
	}
	entries, err := webdav.DecodeMultistatusStream(bytes.NewReader(body))
	if err != nil || len(entries) != 401 {
		t.Fatalf("%d entries, err %v", len(entries), err)
	}
	if !entries[0].Dir || entries[0].Href != "/big" {
		t.Fatalf("self = %+v", entries[0])
	}
	for i, e := range entries[1:] {
		if e.Href != fmt.Sprintf("/big/f%03d", i) || e.Size != int64(i) || e.Dir || e.ModTime.IsZero() {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
}

// TestHrefForMatchesNetURL: a PROPFIND href is the escaped path net/url
// writes, for every byte in every position, and a path with nothing to
// escape comes back as is, without allocating.
func TestHrefForMatchesNetURL(t *testing.T) {
	for c := 0; c < 256; c++ {
		for _, p := range []string{"/" + string(rune(c)), "/d/a" + string([]byte{byte(c)}) + "b"} {
			if got, want := hrefFor(p), (&url.URL{Path: p}).EscapedPath(); got != want {
				t.Fatalf("hrefFor(%q) = %q, want %q", p, got, want)
			}
		}
	}
	for _, p := range []string{"/t/a b/x?.dat", "/t/100%/#1&2", "/t/é€/;=@+$,:~"} {
		if got, want := hrefFor(p), (&url.URL{Path: p}).EscapedPath(); got != want {
			t.Fatalf("hrefFor(%q) = %q, want %q", p, got, want)
		}
	}
	if raceEnabled {
		t.Skip("exact allocation count: CI runs it without -race, in the alloc budgets step")
	}
	clean := "/tree/d00/c01/f000-1a2b.dat"
	if a := testing.AllocsPerRun(100, func() { _ = hrefFor(clean) }); a != 0 {
		t.Fatalf("hrefFor(%q): %.1f allocs, want 0", clean, a)
	}
}

func TestMetalinkNegotiation(t *testing.T) {
	ml := &metalink.Metalink{
		Name: "f",
		Size: 3,
		URLs: []metalink.URL{{Loc: "http://dpm2:80/f", Priority: 1}},
	}
	_, ts, st := newTestServer(t, Options{
		Metalinks: func(p string) *metalink.Metalink {
			if p == "/f" {
				return ml
			}
			return nil
		},
	})
	st.Put("/f", []byte("abc"))

	// Plain GET returns data.
	resp, _ := http.Get(ts.URL + "/f")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "abc" {
		t.Fatalf("plain GET = %q", body)
	}

	// Accept negotiation returns the metalink.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/f", nil)
	req.Header.Set("Accept", metalink.MediaType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != metalink.MediaType {
		t.Fatalf("content-type = %q", got)
	}
	decoded, err := metalink.Decode(body)
	if err != nil || decoded.URLs[0].Loc != "http://dpm2:80/f" {
		t.Fatalf("decoded = %+v err=%v", decoded, err)
	}

	// Query-string negotiation too.
	resp, _ = http.Get(ts.URL + "/f?metalink")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if _, err := metalink.Decode(body); err != nil {
		t.Fatalf("?metalink decode: %v", err)
	}

	// Unknown path: 404.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/other", nil)
	req.Header.Set("Accept", metalink.MediaType)
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing metalink status = %d", resp.StatusCode)
	}
}

func TestDisableKeepAlive(t *testing.T) {
	_, ts, st := newTestServer(t, Options{DisableKeepAlive: true})
	st.Put("/f", []byte("x"))
	resp, err := http.Get(ts.URL + "/f")
	if err != nil {
		t.Fatal(err)
	}
	io.ReadAll(resp.Body)
	resp.Body.Close()
	if !resp.Close && resp.Header.Get("Connection") != "close" {
		t.Fatal("keep-alive not disabled")
	}
}

func TestRequestCounters(t *testing.T) {
	srv, ts, st := newTestServer(t, Options{})
	st.Put("/f", []byte("x"))
	for i := 0; i < 3; i++ {
		resp, _ := http.Get(fmt.Sprintf("%s/f?i=%d", ts.URL, i))
		resp.Body.Close()
	}
	resp, _ := http.Head(ts.URL + "/f")
	resp.Body.Close()
	if srv.Requests() != 4 {
		t.Fatalf("requests = %d", srv.Requests())
	}
	if srv.RequestsByMethod("GET") != 3 || srv.RequestsByMethod("HEAD") != 1 {
		t.Fatalf("by method: GET=%d HEAD=%d",
			srv.RequestsByMethod("GET"), srv.RequestsByMethod("HEAD"))
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	req, _ := http.NewRequest("PATCH", ts.URL+"/f", nil)
	resp, _ := http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestOptionsAdvertisesDAV(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	req, _ := http.NewRequest(http.MethodOptions, ts.URL+"/", nil)
	resp, _ := http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.Header.Get("DAV") != "1" || !strings.Contains(resp.Header.Get("Allow"), "PROPFIND") {
		t.Fatalf("headers = %+v", resp.Header)
	}
}

// putRange sends one Content-Range chunk and returns the status code.
func putRange(t *testing.T, url string, body []byte, start, end, total int64) int {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPut, url, strings.NewReader(string(body)))
	req.Header.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", start, end, total))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestRangedPutAssemblesOutOfOrder: chunks arrive out of order and with an
// overlap; commit happens exactly when [0,total) is covered.
func TestRangedPutAssemblesOutOfOrder(t *testing.T) {
	_, ts, st := newTestServer(t, Options{})
	blob := []byte("0123456789abcdef")
	url := ts.URL + "/ranged"

	if code := putRange(t, url, blob[8:16], 8, 15, 16); code != http.StatusAccepted {
		t.Fatalf("tail chunk status = %d, want 202", code)
	}
	if _, err := st.Stat("/ranged"); err == nil {
		t.Fatal("object committed before full coverage")
	}
	// Overlapping middle chunk, then the head: still assembles correctly.
	if code := putRange(t, url, blob[4:12], 4, 11, 16); code != http.StatusAccepted {
		t.Fatalf("middle chunk status = %d, want 202", code)
	}
	if code := putRange(t, url, blob[0:4], 0, 3, 16); code != http.StatusCreated {
		t.Fatalf("final chunk status = %d, want 201", code)
	}
	got, _, err := st.Get("/ranged")
	if err != nil || string(got) != string(blob) {
		t.Fatalf("assembled %q err=%v", got, err)
	}
}

// TestRangedPutRejectsMalformed: bad ranges, length mismatches, and total
// conflicts are refused without corrupting state.
func TestRangedPutRejectsMalformed(t *testing.T) {
	_, ts, st := newTestServer(t, Options{})
	url := ts.URL + "/bad"

	for _, cr := range []string{
		"bytes 4-1/16",  // end before start
		"bytes 0-16/16", // end past total
		"bytes 0-3/*",   // indeterminate total
		"chunks 0-3/16", // wrong unit
		"bytes zero-3/16",
		"bytes -4--1/16", // negative start
		"bytes 16-19/16", // starts at the total
		"bytes 9223372036854775804-9223372036854775807/*",                   // end = MaxInt64
		"bytes 9223372036854775804-9223372036854775807/9223372036854775807", // end = MaxInt64 = total
	} {
		req, _ := http.NewRequest(http.MethodPut, url, strings.NewReader("xxxx"))
		req.Header.Set("Content-Range", cr)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("Content-Range %q status = %d, want 400", cr, resp.StatusCode)
		}
	}
	// Body length must match the promised range.
	if code := putRange(t, url, []byte("xx"), 0, 3, 16); code != http.StatusBadRequest {
		t.Fatalf("short body status = %d, want 400", code)
	}
	// A different total than the upload in progress is a conflict.
	if code := putRange(t, url, []byte("xxxx"), 0, 3, 16); code != http.StatusAccepted {
		t.Fatalf("first chunk status = %d, want 202", code)
	}
	if code := putRange(t, url, []byte("xxxx"), 4, 7, 32); code != http.StatusConflict {
		t.Fatalf("total mismatch status = %d, want 409", code)
	}
	if _, err := st.Stat("/bad"); err == nil {
		t.Fatal("malformed uploads committed an object")
	}
}

// TestRangedPutDisabled: with DisableRangedPut the server refuses partial
// PUTs with 400 (RFC 9110 §14.4) and never stores chunk bodies.
func TestRangedPutDisabled(t *testing.T) {
	_, ts, st := newTestServer(t, Options{DisableRangedPut: true})
	if code := putRange(t, ts.URL+"/off", []byte("xxxx"), 0, 3, 8); code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", code)
	}
	if _, err := st.Stat("/off"); err == nil {
		t.Fatal("chunk stored despite DisableRangedPut")
	}
}

// TestWholePutAbandonsPartial: a whole-body PUT replaces any half-built
// ranged upload for the path.
func TestWholePutAbandonsPartial(t *testing.T) {
	_, ts, st := newTestServer(t, Options{})
	url := ts.URL + "/swap"
	if code := putRange(t, url, []byte("aaaa"), 0, 3, 8); code != http.StatusAccepted {
		t.Fatalf("chunk status = %d", code)
	}
	req, _ := http.NewRequest(http.MethodPut, url, strings.NewReader("whole"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Completing the old ranged upload now starts a fresh assembly rather
	// than resurrecting the abandoned one.
	if code := putRange(t, url, []byte("bbbb"), 4, 7, 8); code != http.StatusAccepted {
		t.Fatalf("post-replace chunk status = %d, want 202 (fresh assembly)", code)
	}
	got, _, err := st.Get("/swap")
	if err != nil || string(got) != "whole" {
		t.Fatalf("stored %q err=%v", got, err)
	}
}
