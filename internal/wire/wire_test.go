package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"testing/quick"
)

func TestHeaderBasics(t *testing.T) {
	h := Header{}
	h.Set("content-type", "text/plain")
	if got := h.Get("Content-Type"); got != "text/plain" {
		t.Fatalf("Get = %q", got)
	}
	h.Add("X-Multi", "a")
	h.Add("x-multi", "b")
	if got := h.Values("X-Multi"); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Values = %v", got)
	}
	h.Del("X-MULTI")
	if h.Get("X-Multi") != "" {
		t.Fatal("Del did not remove key")
	}

	h.Set("A", "1")
	c := h.Clone()
	c.Set("A", "2")
	if h.Get("A") != "1" {
		t.Fatal("Clone is not a deep copy")
	}
}

func TestHasToken(t *testing.T) {
	cases := []struct {
		value, token string
		want         bool
	}{
		{"close", "close", true},
		{"keep-alive, Upgrade", "upgrade", true},
		{"keep-alive", "close", false},
		{"", "close", false},
		{"Close", "close", true},
	}
	for _, c := range cases {
		if got := hasToken(c.value, c.token); got != c.want {
			t.Errorf("hasToken(%q,%q) = %v, want %v", c.value, c.token, got, c.want)
		}
	}
}

// TestRequestInterop serializes requests with our writer and parses them
// with net/http's server-side reader: a strong standards-compliance check.
func TestRequestInterop(t *testing.T) {
	req := NewRequest("GET", "dpm1:80", "/store/f.rnt?x=1")
	req.Header.Set("Range", "bytes=0-99")
	var buf bytes.Buffer
	if err := req.Write(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := http.ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Method != "GET" || parsed.URL.Path != "/store/f.rnt" {
		t.Fatalf("parsed %s %s", parsed.Method, parsed.URL)
	}
	if parsed.Host != "dpm1:80" {
		t.Fatalf("host = %q", parsed.Host)
	}
	if parsed.Header.Get("Range") != "bytes=0-99" {
		t.Fatalf("range = %q", parsed.Header.Get("Range"))
	}
}

func TestRequestBodyContentLength(t *testing.T) {
	req := NewRequest("PUT", "h:1", "/obj")
	req.SetBodyBytes([]byte("payload"))
	var buf bytes.Buffer
	if err := req.Write(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := http.ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.ContentLength != 7 {
		t.Fatalf("content-length = %d", parsed.ContentLength)
	}
	b, _ := io.ReadAll(parsed.Body)
	if string(b) != "payload" {
		t.Fatalf("body = %q", b)
	}
}

func TestRequestChunkedBody(t *testing.T) {
	req := NewRequest("PUT", "h:1", "/obj")
	req.Body = strings.NewReader("streaming data without length")
	req.ContentLength = -1
	var buf bytes.Buffer
	if err := req.Write(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := http.ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(parsed.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "streaming data without length" {
		t.Fatalf("body = %q", b)
	}
}

func TestRequestCloseHeader(t *testing.T) {
	req := NewRequest("GET", "h:1", "/")
	req.Close = true
	var buf bytes.Buffer
	req.Write(&buf)
	if !strings.Contains(buf.String(), "Connection: close\r\n") {
		t.Fatalf("missing Connection: close in %q", buf.String())
	}
}

func TestEmptyPathBecomesSlash(t *testing.T) {
	req := NewRequest("GET", "h:1", "")
	var buf bytes.Buffer
	req.Write(&buf)
	if !strings.HasPrefix(buf.String(), "GET / HTTP/1.1\r\n") {
		t.Fatalf("request line: %q", buf.String())
	}
}

func readResp(t *testing.T, raw, method string) *Response {
	t.Helper()
	resp, err := ReadResponse(bufio.NewReader(strings.NewReader(raw)), method)
	if err != nil {
		t.Fatalf("ReadResponse: %v", err)
	}
	return resp
}

func TestReadResponseContentLength(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Type: text/plain\r\n\r\nhellorest-of-stream"
	resp := readResp(t, raw, "GET")
	if resp.StatusCode != 200 || resp.ContentLength != 5 || !resp.KeepAlive {
		t.Fatalf("resp = %+v", resp)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil || string(b) != "hello" {
		t.Fatalf("body = %q, err = %v", b, err)
	}
	if !resp.Consumed() {
		t.Fatal("body should be consumed")
	}
}

func TestReadResponseChunked(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n"
	resp := readResp(t, raw, "GET")
	if resp.ContentLength != -1 {
		t.Fatalf("content length = %d", resp.ContentLength)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil || string(b) != "Wikipedia" {
		t.Fatalf("body = %q, err = %v", b, err)
	}
	if !resp.Consumed() || !resp.KeepAlive {
		t.Fatal("chunked body should be consumed and keep-alive")
	}
}

func TestReadResponseChunkedWithExtensionsAndTrailers(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"5;ext=1\r\nhello\r\n0\r\nX-Trailer: v\r\n\r\n"
	resp := readResp(t, raw, "GET")
	b, err := io.ReadAll(resp.Body)
	if err != nil || string(b) != "hello" {
		t.Fatalf("body = %q, err = %v", b, err)
	}
	if !resp.Consumed() {
		t.Fatal("not consumed")
	}
}

func TestReadResponseHead(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nContent-Length: 700\r\n\r\n"
	resp := readResp(t, raw, "HEAD")
	b, _ := io.ReadAll(resp.Body)
	if len(b) != 0 {
		t.Fatalf("HEAD body = %q", b)
	}
	// ContentLength header is advisory for HEAD; framing is zero.
	if !resp.Consumed() {
		t.Fatal("HEAD should be immediately consumed")
	}
	if resp.Header.Get("Content-Length") != "700" {
		t.Fatal("content-length header lost")
	}
}

func TestReadResponse204NoBody(t *testing.T) {
	raw := "HTTP/1.1 204 No Content\r\n\r\nHTTP/1.1 200 OK\r\n"
	resp := readResp(t, raw, "DELETE")
	if resp.StatusCode != 204 || !resp.Consumed() {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestReadResponseCloseDelimited(t *testing.T) {
	raw := "HTTP/1.0 200 OK\r\n\r\nall the way to eof"
	resp := readResp(t, raw, "GET")
	if resp.KeepAlive {
		t.Fatal("close-delimited must not be keep-alive")
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil || string(b) != "all the way to eof" {
		t.Fatalf("body = %q err = %v", b, err)
	}
}

var keepAliveCases = []struct {
	raw  string
	want bool
}{
	{"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n", true},
	{"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close\r\n\r\n", false},
	{"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n", false},
	{"HTTP/1.0 200 OK\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n", true},
}

func TestKeepAliveMatrix(t *testing.T) {
	for i, c := range keepAliveCases {
		resp := readResp(t, c.raw, "GET")
		if resp.KeepAlive != c.want {
			t.Errorf("case %d: keepalive = %v, want %v", i, resp.KeepAlive, c.want)
		}
	}
}

// malformedResponses are refused, by ReadResponse or by the body's reads.
var malformedResponses = []string{
	"garbage\r\n\r\n",
	"HTTP/1.1 abc OK\r\n\r\n",
	"HTTP/1.1 99 Too Low\r\n\r\n",
	"HTTP/1.1 0200 OK\r\nContent-Length: 0\r\n\r\n",
	"HTTP/ 200 OK\r\nContent-Length: 0\r\n\r\n",
	"HTTP/2.0 200 OK\r\nContent-Length: 0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: +5\r\n\r\nhello",
	"HTTP/1.1 200 OK\r\nContent-Length: xyz\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length:\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip, chunked\r\n\r\n0\r\n\r\n",
	"HTTP/1.0 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\n0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\nhello\r\n0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5 ;ext\r\nhello\r\n0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n +5\r\nhello\r\n0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\n",
}

func TestReadResponseMalformed(t *testing.T) {
	for _, raw := range malformedResponses {
		resp, err := ReadResponse(bufio.NewReader(strings.NewReader(raw)), "GET")
		if err == nil {
			_, err = io.ReadAll(resp.Body)
		}
		if !errors.Is(err, ErrMalformedResponse) {
			t.Errorf("%q: err = %v, want ErrMalformedResponse", raw, err)
		}
	}
}

func TestReadResponseTruncatedBody(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort"
	resp := readResp(t, raw, "GET")
	_, err := io.ReadAll(resp.Body)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

// TestReadResponseChunkedCutIsUnexpectedEOF: a chunked body whose
// connection ends anywhere before the blank line after the last chunk is
// truncated, however the cut falls against the framing. Only the
// terminating blank line ends it cleanly.
const chunkedHead = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"

var chunkedCuts = []struct{ name, body string }{
	{"right after the headers", ""},
	{"inside a size line", "5"},
	{"between chunks", "5\r\nhello\r\n"},
	{"inside chunk data", "5\r\nhel"},
	{"before the chunk's CRLF", "5\r\nhello"},
	{"after the last chunk", "5\r\nhello\r\n0\r\n"},
	{"inside the trailers", "5\r\nhello\r\n0\r\nX-Sum: 1\r\n"},
}

func TestReadResponseChunkedCutIsUnexpectedEOF(t *testing.T) {
	for _, c := range chunkedCuts {
		t.Run(c.name, func(t *testing.T) {
			resp := readResp(t, chunkedHead+c.body, "GET")
			b, err := io.ReadAll(resp.Body)
			if err != io.ErrUnexpectedEOF {
				t.Fatalf("body %q, err = %v, want io.ErrUnexpectedEOF", b, err)
			}
			if resp.Consumed() {
				t.Fatal("a truncated body reports itself consumed")
			}
		})
	}
}

func TestDiscardEnablesReuse(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbodyHTTP/1.1 204 No Content\r\n\r\n"
	br := bufio.NewReader(strings.NewReader(raw))
	resp, err := ReadResponse(br, "GET")
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Discard(); err != nil {
		t.Fatal(err)
	}
	next, err := ReadResponse(br, "GET")
	if err != nil {
		t.Fatal(err)
	}
	if next.StatusCode != 204 {
		t.Fatalf("pipelined second response = %d", next.StatusCode)
	}
}

// TestChunkedRoundTrip: property — arbitrary bodies survive our chunked
// writer followed by our chunked reader.
func TestChunkedRoundTrip(t *testing.T) {
	prop := func(body []byte) bool {
		var buf bytes.Buffer
		if err := writeChunked(&buf, bytes.NewReader(body)); err != nil {
			return false
		}
		cb := &chunkedBody{br: bufio.NewReader(&buf)}
		got, err := io.ReadAll(cb)
		if err != nil {
			return false
		}
		return bytes.Equal(got, body)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestResponseHeaderRoundTrip: headers written by our Header.Write are
// parsed back identically.
func TestResponseHeaderRoundTrip(t *testing.T) {
	h := Header{}
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Etag", `"abc123"`)
	h.Add("X-Replica", "dpm1")
	h.Add("X-Replica", "dpm2")

	var buf bytes.Buffer
	io.WriteString(&buf, "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n")
	// Write remaining headers (Header.Write adds the terminating CRLF).
	if err := h.Write(&buf); err != nil {
		t.Fatal(err)
	}
	resp := readResp(t, buf.String(), "GET")
	if resp.Header.Get("Content-Type") != "application/octet-stream" {
		t.Fatal("content-type lost")
	}
	if got := resp.Header.Values("X-Replica"); len(got) != 2 {
		t.Fatalf("x-replica = %v", got)
	}
}
