package httpserv

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/adler32"
	"io"
	"mime/multipart"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"godavix/internal/rangev"
	"godavix/internal/storage"
)

// serveBytes resolves Range headers and frames multipart/byteranges bodies
// itself. net/http's ServeContent, which did both before, is the oracle it
// is held to here: same status, same headers, same bytes, for every Range
// header the table and the fuzzer can come up with.

// part is one byterange part as mime/multipart reads it.
type part struct {
	off, total int64
	data       []byte
}

// readParts parses a multipart/byteranges body with mime/multipart, the
// reference the gateway's framing is held to.
func readParts(body io.Reader, boundary string) ([]part, error) {
	mr := multipart.NewReader(body, boundary)
	var parts []part
	for {
		p, err := mr.NextPart()
		if err == io.EOF {
			return parts, nil
		}
		if err != nil {
			return parts, err
		}
		off, _, total, err := rangev.ParseContentRange(p.Header.Get("Content-Range"))
		if err != nil {
			return parts, err
		}
		data, err := io.ReadAll(p)
		if err != nil {
			return parts, err
		}
		parts = append(parts, part{off, total, data})
	}
}

var rangeModTime = time.Date(2014, 9, 1, 12, 0, 0, 0, time.UTC)

// rangeTable holds Range headers for an object of rangeTableSize bytes.
const rangeTableSize = 1000

var rangeTable = []string{
	"",
	"bytes=0-0",
	"bytes=0-999",
	"bytes=10-19",
	"bytes=990-",
	"bytes=0-",
	"bytes=-10",
	"bytes=-1000",
	"bytes=-5000", // suffix longer than the object
	"bytes=-0",
	"bytes=999-5000", // end clamped
	"bytes=1000-",    // start at size
	"bytes=5000-6000",
	"bytes=20-10", // last before first
	"bytes=a-b",
	"bytes=10",
	"bytes=--5",
	"bytes=-",
	"bytes=+5-+9", // strconv takes a sign, and so does net/http
	"bytes=5-99999999999999999999",
	"bytes=99999999999999999999-",
	"bytes=0-9223372036854775807", // last = MaxInt64: last+1 must not wrap
	"bytes=5-9223372036854775807",
	"bytes=0-9,990-9223372036854775807",
	"bytes=9223372036854775807-9223372036854775807",
	"bytes=-9223372036854775807",
	"items=0-9",
	"bytes 0-9",
	"BYTES=0-9",
	"garbage",
	"bytes=",
	"bytes=,",
	"bytes= , ,",
	"bytes=0-9,",
	"bytes= 0 - 9 ",
	"bytes=\t0-9\t,\t20-29",
	"bytes=0-9,20-29",
	"bytes=20-29,0-9", // order kept
	"bytes=0-9, 20-29, 990-",
	"bytes=0-9,-10",
	"bytes=0-99,50-149", // overlapping
	"bytes=0-9,0-9,0-9",
	"bytes=0-599,400-999",   // sum over size: whole object
	"bytes=0-499,500-999",   // sum equal to size: still multipart
	"bytes=0-9,5000-6000",   // one satisfiable, one not: plain 206
	"bytes=5000-,6000-7000", // none satisfiable
	"bytes=0-9,20-10",       // one malformed member spoils the list
	"bytes=0-9,5000-,20-29,7000-",
	"bytes=" + strings.Repeat("1-2,", 200) + "3-4",
}

// stdlibAnswer is the oracle: what the gateway sent before it had a responder
// of its own.
func stdlibAnswer(method, rng string, data []byte, mod time.Time) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h := rec.Header()
	h.Set("Accept-Ranges", "bytes")
	h.Set("X-Checksum", "adler32:00000001")
	h.Set("Content-Type", objectType)
	http.ServeContent(rec, rangeRequest(method, rng), "", mod, bytes.NewReader(data))
	return rec
}

func ourAnswer(method, rng string, data []byte, mod time.Time) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	serveBytes(rec, rangeRequest(method, rng), storage.Info{ModTime: mod, Checksum: "adler32:00000001"}, data)
	return rec
}

func rangeRequest(method, rng string) *http.Request {
	r := httptest.NewRequest(method, "/f", nil)
	if rng != "" {
		r.Header["Range"] = []string{rng}
	}
	return r
}

// decoded is a response body: bytes, or the parts of a multipart one.
type decoded struct {
	boundary string
	parts    []string // "Content-Range|Content-Type|payload" per part
	raw      []byte
}

func decodeBody(rec *httptest.ResponseRecorder) (decoded, error) {
	d := decoded{raw: rec.Body.Bytes()}
	d.boundary, _ = rangev.IsMultipartByteranges(rec.Header().Get("Content-Type"))
	if d.boundary == "" || len(d.raw) == 0 { // not multipart, or a HEAD
		return d, nil
	}
	mr := multipart.NewReader(bytes.NewReader(d.raw), d.boundary)
	for {
		p, err := mr.NextRawPart()
		if err == io.EOF {
			return d, nil
		}
		if err != nil {
			return d, fmt.Errorf("multipart body does not parse: %v", err)
		}
		payload, err := io.ReadAll(p)
		if err != nil {
			return d, fmt.Errorf("multipart part does not parse: %v", err)
		}
		if len(p.Header) != 2 {
			return d, fmt.Errorf("part headers = %v, want Content-Range and Content-Type", p.Header)
		}
		d.parts = append(d.parts, p.Header.Get("Content-Range")+"|"+p.Header.Get("Content-Type")+"|"+string(payload))
	}
}

// sameAnswer reports how the responder's answer differs from the oracle's.
func sameAnswer(got, want *httptest.ResponseRecorder) error {
	if got.Code != want.Code {
		return fmt.Errorf("status %d, stdlib %d", got.Code, want.Code)
	}
	g, err := decodeBody(got)
	if err != nil {
		return err
	}
	w, err := decodeBody(want)
	if err != nil {
		return fmt.Errorf("stdlib: %v", err)
	}
	for _, k := range []string{"Content-Range", "Content-Length", "Accept-Ranges", "Last-Modified", "Content-Type", "X-Content-Type-Options", "X-Checksum", "Digest"} {
		gv, wv := got.Header()[k], want.Header()[k]
		if k == "Content-Type" && g.boundary != "" && w.boundary != "" {
			// The boundary is random on both sides; compare the rest.
			if len(g.boundary) != 60 || strings.Trim(g.boundary, "0123456789abcdef") != "" {
				return fmt.Errorf("boundary %q is not 60 hex characters like mime/multipart's", g.boundary)
			}
			gv, wv = []string{strings.Replace(gv[0], g.boundary, "B", 1)}, []string{strings.Replace(wv[0], w.boundary, "B", 1)}
		}
		if fmt.Sprint(gv) != fmt.Sprint(wv) {
			return fmt.Errorf("%s = %q, stdlib %q", k, gv, wv)
		}
	}
	if len(g.raw) != len(w.raw) {
		return fmt.Errorf("body is %d bytes, stdlib's %d", len(g.raw), len(w.raw))
	}
	if g.boundary == "" {
		if !bytes.Equal(g.raw, w.raw) {
			return fmt.Errorf("body %q, stdlib %q", g.raw, w.raw)
		}
		return nil
	}
	if len(g.parts) != len(w.parts) {
		return fmt.Errorf("%d parts, stdlib %d", len(g.parts), len(w.parts))
	}
	for i := range g.parts {
		if g.parts[i] != w.parts[i] {
			return fmt.Errorf("part %d = %.120q, stdlib %.120q", i, g.parts[i], w.parts[i])
		}
	}
	// Beyond what a parser forgives: byte for byte the same framing.
	if norm := bytes.ReplaceAll(g.raw, []byte(g.boundary), []byte(w.boundary)); !bytes.Equal(norm, w.raw) {
		return fmt.Errorf("multipart framing differs from mime/multipart's:\n%.300q\n%.300q", norm, w.raw)
	}
	return nil
}

func rangeBlob(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

func TestRangeResponderMatchesStdlib(t *testing.T) {
	objects := []struct {
		name string
		data []byte
		mod  time.Time
	}{
		{"1000 bytes", rangeBlob(rangeTableSize), rangeModTime},
		{"empty object", nil, rangeModTime},
		{"one byte, no mod time", rangeBlob(1), time.Time{}},
		{"epoch mod time", rangeBlob(64), time.Unix(0, 0)},
	}
	for _, o := range objects {
		for _, method := range []string{http.MethodGet, http.MethodHead} {
			for _, rng := range rangeTable {
				if err := sameAnswer(ourAnswer(method, rng, o.data, o.mod), stdlibAnswer(method, rng, o.data, o.mod)); err != nil {
					t.Errorf("%s, %s, Range %.60q: %v", o.name, method, rng, err)
				}
			}
		}
	}
}

func FuzzRangeResponder(f *testing.F) {
	for _, rng := range rangeTable {
		f.Add(rng, uint16(rangeTableSize), false)
		f.Add(rng, uint16(0), true)
	}
	f.Fuzz(func(t *testing.T, rng string, size uint16, head bool) {
		method := http.MethodGet
		if head {
			method = http.MethodHead
		}
		data := rangeBlob(int(size % 4096))
		if err := sameAnswer(ourAnswer(method, rng, data, rangeModTime), stdlibAnswer(method, rng, data, rangeModTime)); err != nil {
			t.Fatalf("%d-byte object, %s, Range %q: %v", len(data), method, rng, err)
		}
	})
}

// TestMultipartBodyRoundTrip: both of the client's multipart parsers — the
// streaming scatter and the mime/multipart reference — read what
// serveMultipart writes, for one part, two and many.
func TestMultipartBodyRoundTrip(t *testing.T) {
	blob := rangeBlob(1 << 20)
	for _, n := range []int{1, 2, 64} {
		var spans []span
		var ranges []rangev.Range
		for i := 0; i < n; i++ {
			off := int64(i)*16000 + 3
			spans = append(spans, span{off, off + 2048})
			ranges = append(ranges, rangev.Range{Off: off, Len: 2048})
		}
		frames := rangev.Coalesce(ranges, 0)
		rec := httptest.NewRecorder()
		serveMultipart(rec, httptest.NewRequest(http.MethodGet, "/f", nil), blob, spans)
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("%d parts: Content-Length %s, body is %d bytes", n, got, rec.Body.Len())
		}
		boundary, ok := rangev.IsMultipartByteranges(rec.Header().Get("Content-Type"))
		if !ok {
			t.Fatalf("%d parts: Content-Type %q", n, rec.Header().Get("Content-Type"))
		}

		parts, err := readParts(bytes.NewReader(rec.Body.Bytes()), boundary)
		if err != nil || len(parts) != n {
			t.Fatalf("%d parts: mime/multipart gave %d parts, err %v", n, len(parts), err)
		}
		for i, p := range parts {
			if p.off != spans[i].start || p.total != int64(len(blob)) || !bytes.Equal(p.data, blob[spans[i].start:spans[i].end]) {
				t.Fatalf("%d parts: mime/multipart part %d is off %d total %d, %d bytes", n, i, p.off, p.total, len(p.data))
			}
		}

		dsts := make([][]byte, n)
		for i := range dsts {
			dsts[i] = make([]byte, ranges[i].Len)
		}
		if err := rangev.ScatterMultipart(bytes.NewReader(rec.Body.Bytes()), boundary, frames, ranges, dsts); err != nil {
			t.Fatalf("%d parts: ScatterMultipart: %v", n, err)
		}
		for i, d := range dsts {
			if !bytes.Equal(d, blob[spans[i].start:spans[i].end]) {
				t.Fatalf("%d parts: ScatterMultipart range %d differs", n, i)
			}
		}
	}
}

// TestDigestIsOfTheBytesServed: whatever a GET carries — the object, one
// range of it, or the whole object because a condition or the range
// arithmetic said so — a Digest header on it is the digest of exactly those
// bytes, or there is none. The stale If-Range row answered 200 with the
// digest of the ten bytes it did not send.
func TestDigestIsOfTheBytesServed(t *testing.T) {
	_, ts, st := newTestServer(t, Options{})
	blob := rangeBlob(1000)
	st.Put("/f", blob)
	inf, _ := st.Stat("/f")
	fresh := inf.ModTime.UTC().Format(http.TimeFormat)

	cases := []struct {
		name       string
		header     [][2]string
		status     int
		wantDigest bool
	}{
		{"whole object", nil, 200, true},
		{"one range", [][2]string{{"Range", "bytes=0-9"}}, 206, true},
		{"suffix range", [][2]string{{"Range", "bytes=-7"}}, 206, true},
		{"one range left of a list", [][2]string{{"Range", "bytes=0-9,5000-"}}, 206, true},
		{"ranges summing past the object", [][2]string{{"Range", "bytes=0-599,400-999"}}, 200, true},
		{"two ranges", [][2]string{{"Range", "bytes=0-9,20-29"}}, 206, false},
		{"unsatisfiable", [][2]string{{"Range", "bytes=5000-"}}, 416, false},
		{"stale If-Range", [][2]string{{"Range", "bytes=0-9"}, {"If-Range", "Mon, 01 Jan 2001 00:00:00 GMT"}}, 200, false},
		{"fresh If-Range", [][2]string{{"Range", "bytes=0-9"}, {"If-Range", fresh}}, 206, false},
	}
	for _, c := range cases {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/f", nil)
		req.Header.Set("Want-Digest", "adler32")
		for _, kv := range c.header {
			req.Header.Set(kv[0], kv[1])
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
		}
		got := resp.Header.Get("Digest")
		switch {
		case !c.wantDigest && got != "":
			t.Errorf("%s: Digest %q on a response that promises none", c.name, got)
		case c.wantDigest && got != fmt.Sprintf("adler32=%08x", adler32.Checksum(body)):
			t.Errorf("%s: Digest %q, the %d bytes served hash to adler32=%08x", c.name, got, len(body), adler32.Checksum(body))
		}
	}
}

// rawClient sends prepared requests down one connection and throws the
// answers away without allocating, so that what a run allocates is the
// gateway's doing.
type rawClient struct {
	conn net.Conn
	br   *bufio.Reader
}

func newRawClient(conn net.Conn) *rawClient {
	return &rawClient{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}
}

func rawRequest(path, rng string) []byte {
	if rng != "" {
		rng = "Range: " + rng + "\r\n"
	}
	return []byte("GET " + path + " HTTP/1.1\r\nHost: gw\r\n" + rng + "\r\n")
}

// do sends req and reports the answer's status and body length.
func (c *rawClient) do(req []byte) (status, n int, err error) {
	if _, err := c.conn.Write(req); err != nil {
		return 0, 0, err
	}
	n = -1
	for first := true; ; first = false {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, 0, err
		}
		if first {
			if status, err = strconv.Atoi(string(line[9:12])); err != nil {
				return 0, 0, err
			}
		} else if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
			if n, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
				return 0, 0, err
			}
		} else if len(bytes.TrimSpace(line)) == 0 {
			break
		}
	}
	if n < 0 {
		return 0, 0, fmt.Errorf("status %d without Content-Length", status)
	}
	_, err = c.br.Discard(n)
	return status, n, err
}

// TestLargeRangeGetAllocBudget: an 8 MiB single-range GET over loopback TCP
// costs the gateway its per-request bookkeeping and nothing that scales with
// the body. Through ServeContent every response took a 32 KiB copy buffer
// (TCPConn.ReadFrom falls back to io.Copy for a bytes.Reader) — 40 KB per GET
// in all; measured now: 2.9 KB.
func TestLargeRangeGetAllocBudget(t *testing.T) {
	const length = 8 << 20
	st := storage.NewMemStore()
	st.Put("/big", rangeBlob(length+4096))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go New(st, Options{}).Serve(l)
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := newRawClient(conn)
	req := rawRequest("/big", fmt.Sprintf("bytes=1024-%d", 1024+length-1))
	get := func() {
		t.Helper()
		if status, n, err := c.do(req); err != nil || status != 206 || n != length {
			t.Fatalf("GET: status %d, %d bytes, err %v", status, n, err)
		}
	}
	get() // connection set-up, lazily built tables

	// TotalAlloc is process-wide: enough runs that a background allocation
	// amortises, and a second measurement before one is believed.
	const runs = 32
	measure := func() uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			get()
		}
		runtime.ReadMemStats(&m1)
		return (m1.TotalAlloc - m0.TotalAlloc) / runs
	}
	perGet := measure()
	if perGet >= 16<<10 {
		perGet = min(perGet, measure())
	}
	t.Logf("%d B allocated per 8 MiB range GET", perGet)
	if perGet >= 16<<10 {
		t.Fatalf("8 MiB range GET allocated %d B on the gateway, budget 16 KiB", perGet)
	}
}

// pipeListener hands the server one end of a net.Pipe per dial: the handler
// runs under a real http.Server with no sockets involved.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once // http.Server closes its listener too
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	l.conns <- server
	return client
}

// BenchmarkServeGet is the gateway's cost of answering a GET, through the
// handler and net/http's server over an in-memory connection: a small whole
// object (per-request cost), one large range (per-byte cost) and a 64-part
// multi-range answer of 2 KiB parts (the analysis workloads' vectored read).
func BenchmarkServeGet(b *testing.B) {
	st := storage.NewMemStore()
	st.Put("/small", rangeBlob(16<<10))
	st.Put("/big", rangeBlob(8<<20+4096))
	var parts []string
	for i := 0; i < 64; i++ {
		parts = append(parts, fmt.Sprintf("%d-%d", i*100000, i*100000+2047))
	}
	cases := []struct {
		name string
		req  []byte
		code int
	}{
		{"whole16K", rawRequest("/small", ""), 200},
		{"range8M", rawRequest("/big", fmt.Sprintf("bytes=1024-%d", 1024+8<<20-1)), 206},
		{"multirange64x2K", rawRequest("/big", "bytes="+strings.Join(parts, ",")), 206},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			l := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
			defer l.Close()
			go New(st, Options{}).Serve(l)
			conn := l.dial()
			defer conn.Close()
			rc := newRawClient(conn)
			_, n, err := rc.do(c.req)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if status, _, err := rc.do(c.req); err != nil || status != c.code {
					b.Fatalf("status %d, err %v", status, err)
				}
			}
		})
	}
}
