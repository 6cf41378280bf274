package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"sync"

	"godavix/internal/bufpool"
)

// Request is an outbound HTTP/1.1 request.
type Request struct {
	// Method is the HTTP method ("GET", "PUT", "PROPFIND", ...).
	Method string

	// Host is the authority for the Host header and connection routing
	// ("dpm1:80").
	Host string

	// Path is the origin-form request target ("/store/file.rnt"); an empty
	// Path is sent as "/". A query string may be included.
	Path string

	// Header holds additional request headers. Host, Content-Length and
	// Transfer-Encoding are managed by Write.
	Header Header

	// Body is the request payload. If ContentLength is negative and Body is
	// non-nil the body is sent chunked.
	Body io.Reader

	// ContentLength is the body size; -1 with a non-nil Body selects
	// chunked transfer encoding, 0 with nil Body means no body.
	ContentLength int64

	// Close requests that the server close the connection after responding
	// (sends "Connection: close").
	Close bool

	// store backs Header's first fields and bytesBody a SetBodyBytes body,
	// so a request with few headers costs nothing beyond itself.
	store     [4]field
	bytesBody bytes.Reader
}

// requests recycles the requests Release hands back.
var requests = sync.Pool{New: func() any { return new(Request) }}

// NewRequest returns a bodyless request whose Header has room for a few
// fields without allocating; it may be one a Release handed back. The
// request must not be copied: its Header points into it.
func NewRequest(method, host, path string) *Request {
	r := requests.Get().(*Request)
	r.Method, r.Host, r.Path = method, host, path
	r.Header = r.store[:0]
	return r
}

// Release hands r back for a later NewRequest to reuse. Neither r nor its
// Header may be used afterwards; its Body is not closed.
func (r *Request) Release() {
	*r = Request{}
	requests.Put(r)
}

// SetBodyBytes attaches b as the request body with a known length.
func (r *Request) SetBodyBytes(b []byte) {
	r.bytesBody.Reset(b)
	r.Body = &r.bytesBody
	r.ContentLength = int64(len(b))
}

// Write serializes the request to w in HTTP/1.1 wire format, headers and
// body coalesced through one buffered writer.
func (r *Request) Write(w io.Writer) error {
	bw := getWriter(w)
	defer putWriter(bw)
	if err := r.writeHeaderTo(bw); err != nil {
		return err
	}
	if err := r.writeBodyTo(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteHeader serializes only the request line and headers (declaring the
// body framing the headers promise, but sending no body bytes). Used by
// Expect: 100-continue flows, where the caller waits for the server's
// interim response before streaming the body with WriteBody.
func (r *Request) WriteHeader(w io.Writer) error {
	bw := getWriter(w)
	defer putWriter(bw)
	if err := r.writeHeaderTo(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteBody streams the request body using the framing the headers declared
// (Content-Length copy or chunked transfer encoding). It must follow a
// WriteHeader on the same connection.
func (r *Request) WriteBody(w io.Writer) error {
	bw := getWriter(w)
	defer putWriter(bw)
	if err := r.writeBodyTo(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// bwPool recycles the 4 KiB buffered writers requests are serialized
// through: a connection carries thousands of requests, and a fresh writer
// for each was 4 KiB of garbage per request.
var bwPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 4096) }}

func getWriter(w io.Writer) *bufio.Writer {
	bw := bwPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

// putWriter returns bw to the pool, dropping whatever an error path left
// unflushed along with the reference to the connection.
func putWriter(bw *bufio.Writer) {
	bw.Reset(nil)
	bwPool.Put(bw)
}

// writeHeaderTo renders the request line and headers, choosing the body
// framing (Content-Length versus chunked) that writeBodyTo will honour. The
// managed lines (Host, the framing, Connection: close) replace any the caller
// set under the same key.
func (r *Request) writeHeaderTo(bw *bufio.Writer) error {
	path := r.Path
	if path == "" {
		path = "/"
	}
	bw.WriteString(r.Method)
	bw.WriteByte(' ')
	bw.WriteString(path)
	bw.WriteString(" HTTP/1.1\r\n")

	managed := make([]field, 0, 3)
	managed = append(managed, field{"Host", r.Host})
	if r.Close {
		managed = append(managed, field{"Connection", "close"})
	}
	switch {
	case r.Body == nil:
		// Methods that conventionally carry bodies get an explicit zero.
		if r.Method == "PUT" || r.Method == "POST" {
			managed = append(managed, field{"Content-Length", "0"})
		}
	case r.ContentLength >= 0:
		managed = append(managed, field{"Content-Length", strconv.FormatInt(r.ContentLength, 10)})
	default:
		managed = append(managed, field{"Transfer-Encoding", "chunked"})
	}
	return r.Header.writeTo(bw, managed)
}

// writeBodyTo copies the body with the framing writeHeaderTo declared,
// through a pooled 64 KiB buffer: io.Copy's native path through the bufio
// buffer would chop a multi-MiB upload into 4 KiB writes, and the
// per-write cost (a syscall on real TCP) dominates large uploads long
// before the bytes do.
func (r *Request) writeBodyTo(bw *bufio.Writer) error {
	if r.Body == nil {
		return nil
	}
	if r.ContentLength < 0 {
		return writeChunked(bw, r.Body)
	}
	if br, ok := r.Body.(*bytes.Reader); ok && int64(br.Len()) == r.ContentLength {
		// An in-memory body goes out whole: the buffered writer sends
		// what fits behind the headers and the rest in one write.
		_, err := br.WriteTo(bw)
		return err
	}
	buf := bufpool.Get(64 << 10)
	defer bufpool.Put(buf)
	// The wrappers hide bufio's ReaderFrom and any WriterTo so CopyBuffer
	// actually honours the buffer size.
	n, err := io.CopyBuffer(
		struct{ io.Writer }{bw},
		struct{ io.Reader }{io.LimitReader(r.Body, r.ContentLength)},
		buf)
	if err == nil && n < r.ContentLength {
		// A body shorter than its declared length would desync the
		// connection framing; surface it like io.CopyN did.
		err = io.ErrUnexpectedEOF
	}
	return err
}

// writeChunked copies body to w using chunked transfer encoding.
func writeChunked(w io.Writer, body io.Reader) error {
	buf := bufpool.Get(16 << 10)
	defer bufpool.Put(buf)
	for {
		n, err := body.Read(buf)
		if n > 0 {
			if _, werr := fmt.Fprintf(w, "%x\r\n", n); werr != nil {
				return werr
			}
			if _, werr := w.Write(buf[:n]); werr != nil {
				return werr
			}
			if _, werr := io.WriteString(w, "\r\n"); werr != nil {
				return werr
			}
		}
		if err == io.EOF {
			_, werr := io.WriteString(w, "0\r\n\r\n")
			return werr
		}
		if err != nil {
			return err
		}
	}
}
