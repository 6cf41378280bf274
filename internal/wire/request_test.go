package wire

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"testing"
)

// TestRequestHeaderBytes pins the exact header block: sorted keys, every
// value of a repeated key, and the managed lines (Host, framing, Connection:
// close) replacing whatever the caller put under those keys.
func TestRequestHeaderBytes(t *testing.T) {
	cases := []struct {
		name string
		req  func() *Request
		want string
	}{
		{"bodyless GET", func() *Request {
			r := NewRequest("GET", "dpm1:80", "/f")
			r.Header.Set("Range", "bytes=0-9")
			r.Header.Add("Accept", "a/b")
			r.Header.Add("Accept", "c/d")
			return r
		}, "GET /f HTTP/1.1\r\nAccept: a/b\r\nAccept: c/d\r\nHost: dpm1:80\r\nRange: bytes=0-9\r\n\r\n"},
		{"caller's Host and Connection lose", func() *Request {
			r := NewRequest("GET", "dpm1:80", "/f")
			r.Header.Set("Host", "elsewhere")
			r.Header.Set("Connection", "keep-alive")
			r.Close = true
			return r
		}, "GET /f HTTP/1.1\r\nConnection: close\r\nHost: dpm1:80\r\n\r\n"},
		{"caller's Connection kept without Close", func() *Request {
			r := NewRequest("GET", "h:1", "/f")
			r.Header.Set("Connection", "keep-alive")
			return r
		}, "GET /f HTTP/1.1\r\nConnection: keep-alive\r\nHost: h:1\r\n\r\n"},
		{"bodyless PUT gets a zero length", func() *Request {
			return NewRequest("PUT", "h:1", "/f")
		}, "PUT /f HTTP/1.1\r\nContent-Length: 0\r\nHost: h:1\r\n\r\n"},
		{"sized body replaces caller's Content-Length", func() *Request {
			r := NewRequest("PUT", "h:1", "/f")
			r.Header.Set("Content-Length", "999")
			r.Header.Set("X-Upload-Id", "u1")
			r.SetBodyBytes([]byte("abc"))
			return r
		}, "PUT /f HTTP/1.1\r\nContent-Length: 3\r\nHost: h:1\r\nX-Upload-Id: u1\r\n\r\nabc"},
		{"unsized body goes chunked", func() *Request {
			r := NewRequest("PUT", "h:1", "/f")
			r.Body = strings.NewReader("abc")
			r.ContentLength = -1
			return r
		}, "PUT /f HTTP/1.1\r\nHost: h:1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := c.req().Write(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if buf.String() != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, buf.String(), c.want)
		}
	}
}

// failAfter accepts n bytes and then refuses everything.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		return 0, io.ErrClosedPipe
	}
	f.n -= len(p)
	return len(p), nil
}

// TestRequestWriteErrorLeavesPoolClean: a failed write must surface, and the
// writer it went through must not carry its unflushed bytes or its error
// into the next request.
func TestRequestWriteErrorLeavesPoolClean(t *testing.T) {
	req := NewRequest("PUT", "h:1", "/f")
	req.SetBodyBytes(bytes.Repeat([]byte("x"), 10<<10))
	for i := 0; i < 4; i++ {
		if err := req.Write(&failAfter{n: 100}); err == nil {
			t.Fatal("write onto a failing connection reported no error")
		}
		req.SetBodyBytes(bytes.Repeat([]byte("x"), 10<<10))
	}
	var buf bytes.Buffer
	get := NewRequest("GET", "h:1", "/g")
	if err := get.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "GET /g HTTP/1.1\r\nHost: h:1\r\n\r\n"; buf.String() != want {
		t.Fatalf("request after failed writes = %q, want %q", buf.String(), want)
	}
}

// bytesPerOp reports allocations and allocated bytes per call of f.
func bytesPerOp(f func()) (allocs float64, bytes uint64) {
	const runs = 200
	f() // warm the pools
	allocs = testing.AllocsPerRun(runs, f)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return allocs, (m1.TotalAlloc - m0.TotalAlloc) / runs
}

// TestRequestWriteAllocBudget: serializing a request allocates no buffer —
// not the 4 KiB writer, not the 16 KiB chunked staging block; both are
// reused. Measured: 0 allocs, 0 B for the GET; 2 allocs, 16 B for the chunked
// PUT (the chunk-size lines). The byte budgets are half a writer: under the
// race detector sync.Pool drops a quarter of what it is given, which costs
// about 1 KB per op there.
func TestRequestWriteAllocBudget(t *testing.T) {
	get := NewRequest("GET", "dpm1:80", "/store/f.rnt")
	get.Header.Set("Range", "bytes=0-16383")
	get.Header.Set("User-Agent", "godavix")
	allocs, b := bytesPerOp(func() { get.Write(io.Discard) })
	t.Logf("bodyless GET: %.0f allocs, %d B per Write", allocs, b)
	if allocs > 1 || b > 2048 {
		t.Fatalf("bodyless GET Write: %.0f allocs, %d B per op; budget 1 alloc, 2 KiB", allocs, b)
	}

	body := bytes.Repeat([]byte("y"), 20<<10)
	put := NewRequest("PUT", "dpm1:80", "/store/f.rnt")
	rd := bytes.NewReader(body)
	put.Body, put.ContentLength = rd, -1
	allocs, b = bytesPerOp(func() { rd.Reset(body); put.Write(io.Discard) })
	t.Logf("chunked PUT: %.0f allocs, %d B per Write", allocs, b)
	if b > 2048 {
		t.Fatalf("chunked PUT Write: %d B per op; budget 2 KiB", b)
	}
}
