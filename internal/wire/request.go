package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
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
}

// NewRequest returns a bodyless request with an initialized header map.
func NewRequest(method, host, path string) *Request {
	return &Request{Method: method, Host: host, Path: path, Header: Header{}}
}

// SetBodyBytes attaches b as the request body with a known length.
func (r *Request) SetBodyBytes(b []byte) {
	r.Body = bytes.NewReader(b)
	r.ContentLength = int64(len(b))
}

// Write serializes the request to w in HTTP/1.1 wire format. A large
// file-backed body going to a connection that can ingest readers directly
// (io.ReaderFrom — net.TCPConn and the client's counting wrapper) skips the
// buffered writer: the headers are flushed and the body handed to the
// connection as an io.LimitedReader over the file, which is the exact shape
// the runtime's sendfile probe unwraps. Everything else keeps the coalesced
// buffered path.
func (r *Request) Write(w io.Writer) error {
	bw := getWriter(w)
	defer putWriter(bw)
	if err := r.writeHeaderTo(bw); err != nil {
		return err
	}
	if r.directBodyOK(w) {
		if err := bw.Flush(); err != nil {
			return err
		}
		return r.writeBodyDirect(w)
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
// WriteHeader on the same connection. File-backed bodies going to an
// io.ReaderFrom connection are handed over directly (no buffered writer in
// between) so the kernel sendfile path engages.
func (r *Request) WriteBody(w io.Writer) error {
	if r.directBodyOK(w) {
		return r.writeBodyDirect(w)
	}
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

// directBodyMin is the smallest body worth the separate header flush the
// direct handoff costs: below this, coalescing header and body into one
// buffered write wins.
const directBodyMin = 64 << 10

// DirectBody reports whether Write/WriteBody will hand the body to w whole
// (the zero-copy handoff) rather than copy it through pooled buffers —
// callers use it to classify the transfer's byte path.
func (r *Request) DirectBody(w io.Writer) bool { return r.directBodyOK(w) }

// directBodyOK reports whether the body should bypass the buffered writer
// and be handed to w whole: a known-length file-backed body of useful size,
// going to a connection that ingests readers (io.ReaderFrom). TLS
// connections do not implement ReaderFrom, so they keep the buffered path
// naturally.
func (r *Request) directBodyOK(w io.Writer) bool {
	if r.Body == nil || r.ContentLength < directBodyMin {
		return false
	}
	if _, ok := w.(io.ReaderFrom); !ok {
		return false
	}
	return FileBacked(r.Body)
}

// writeBodyDirect hands the body to w as an io.LimitedReader so w's
// ReadFrom — and, underneath it on a real socket, sendfile(2) — moves the
// bytes without a userspace copy.
func (r *Request) writeBodyDirect(w io.Writer) error {
	n, err := io.Copy(w, io.LimitReader(r.Body, r.ContentLength))
	if err == nil && n < r.ContentLength {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// FileBacked reports whether body bottoms out in an *os.File — the shape
// the kernel zero-copy paths (sendfile on send, splice on receive) accept.
// io.LimitedReader layers are unwrapped the same way the runtime does.
func FileBacked(body io.Reader) bool {
	for {
		switch b := body.(type) {
		case *os.File:
			return true
		case *io.LimitedReader:
			body = b.R
		default:
			return false
		}
	}
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
