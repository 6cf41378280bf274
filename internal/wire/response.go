package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/textproto"
	"strconv"
	"strings"
)

// Response is a parsed HTTP response. Body must be drained (read to EOF) or
// closed before the underlying connection can be reused; KeepAlive reports
// whether reuse is permitted at all.
type Response struct {
	// StatusCode is the numeric status (200, 206, 404, ...).
	StatusCode int

	// Status is the full status line reason ("206 Partial Content").
	Status string

	// Proto is the protocol version string ("HTTP/1.1").
	Proto string

	// Header holds the response headers.
	Header Header

	// Body streams the message body. It reads io.EOF exactly at the end of
	// the message; for keep-alive framing the connection is then positioned
	// at the next response.
	Body io.ReadCloser

	// ContentLength is the declared body length, or -1 when unknown
	// (chunked or close-delimited).
	ContentLength int64

	// KeepAlive reports whether the connection may be reused after the
	// body has been fully consumed.
	KeepAlive bool
}

// ErrMalformedResponse reports a response the parser cannot read.
var ErrMalformedResponse = errors.New("wire: malformed response")

// ReadResponse parses one response for the given request method from br.
func ReadResponse(br *bufio.Reader, method string) (*Response, error) {
	tp := textproto.NewReader(br)
	line, err := tp.ReadLine()
	if err != nil {
		return nil, err
	}
	// An HTTP/1.x client reads HTTP/1.0 and HTTP/1.1 framing only; the
	// status code is three digits (RFC 9112 §4).
	proto, rest, ok := strings.Cut(line, " ")
	if !ok || (proto != "HTTP/1.1" && proto != "HTTP/1.0") {
		return nil, fmt.Errorf("%w: status line %q", ErrMalformedResponse, line)
	}
	codeStr, _, _ := strings.Cut(rest, " ")
	code, err := strconv.Atoi(codeStr)
	if err != nil || len(codeStr) != 3 || code < 100 || code > 599 {
		return nil, fmt.Errorf("%w: status code in %q", ErrMalformedResponse, line)
	}

	mh, err := tp.ReadMIMEHeader()
	if err != nil {
		return nil, fmt.Errorf("%w: headers: %v", ErrMalformedResponse, err)
	}
	h := Header(mh)

	resp := &Response{
		StatusCode: code,
		Status:     rest,
		Proto:      proto,
		Header:     h,
	}

	// Keep-alive: HTTP/1.1 defaults to persistent unless "Connection: close";
	// HTTP/1.0 requires an explicit keep-alive.
	conn := h.Get("Connection")
	if proto == "HTTP/1.1" {
		resp.KeepAlive = !hasToken(conn, "close")
	} else {
		resp.KeepAlive = hasToken(conn, "keep-alive")
	}

	// Body framing per RFC 9112 §6.3. The only transfer coding is chunked,
	// alone, and an HTTP/1.0 message carrying one has faulty framing
	// (§6.1). Every Content-Length field must be a decimal that agrees.
	te, chunked := h["Transfer-Encoding"]
	if chunked && (proto != "HTTP/1.1" || len(te) != 1 || !strings.EqualFold(te[0], "chunked")) {
		return nil, fmt.Errorf("%w: transfer-encoding %q", ErrMalformedResponse, te)
	}
	length := int64(-1)
	for _, v := range h["Content-Length"] {
		n, err := strconv.ParseUint(v, 10, 63)
		if err != nil || (length >= 0 && int64(n) != length) {
			return nil, fmt.Errorf("%w: content-length %q", ErrMalformedResponse, v)
		}
		length = int64(n)
	}
	switch {
	case method == "HEAD" || code/100 == 1 || code == 204 || code == 304:
		resp.ContentLength = 0
		resp.Body = &fixedBody{r: br, remaining: 0}
	case chunked:
		resp.ContentLength = -1
		resp.Body = &chunkedBody{br: br}
	case length >= 0:
		resp.ContentLength = length
		resp.Body = &fixedBody{r: br, remaining: length}
	default:
		// Close-delimited: body runs to connection EOF; never reusable.
		resp.ContentLength = -1
		resp.KeepAlive = false
		resp.Body = &eofBody{r: br}
	}
	return resp, nil
}

// Consumed reports whether the body has been fully read, leaving the
// connection positioned at the next response.
func (r *Response) Consumed() bool {
	switch b := r.Body.(type) {
	case *fixedBody:
		return b.remaining == 0
	case *chunkedBody:
		return b.done
	case *eofBody:
		return b.done
	}
	return false
}

// ReadAll reads the remaining body to EOF. Content-Length-framed bodies
// are read into a single exactly-sized allocation instead of io.ReadAll's
// grow-and-copy loop — on the vector-read and cache-fill hot paths this
// halves the per-response allocation work.
func (r *Response) ReadAll() ([]byte, error) {
	if fb, ok := r.Body.(*fixedBody); ok {
		b := make([]byte, fb.remaining)
		_, err := io.ReadFull(r.Body, b)
		return b, err
	}
	return io.ReadAll(r.Body)
}

// WriteBodyTo streams the rest of a Content-Length-framed body into dst,
// returning the bytes written and how many of them were read from raw
// rather than the response's buffered reader. The buffered prefix — bytes
// the header parse already pulled into the bufio.Reader — is drained into
// dst first; the remainder is then copied from raw, the connection
// underneath the buffering, as an io.LimitedReader. When dst is an
// *os.File and raw a real socket, that copy is the runtime's splice path:
// the payload never enters a userspace buffer. The body is left fully
// consumed (Consumed() true) on success, so the connection can recycle.
//
// Callers own the byte accounting for the raw portion: those reads bypass
// any counting wrapper above raw. Non-fixed bodies and raw == nil fall
// back to a plain copy from Body.
func (r *Response) WriteBodyTo(dst io.Writer, raw io.Reader) (n, direct int64, err error) {
	fb, okFixed := r.Body.(*fixedBody)
	var br *bufio.Reader
	if okFixed {
		br, _ = fb.r.(*bufio.Reader)
	}
	if !okFixed || br == nil || raw == nil {
		m, cerr := io.Copy(dst, r.Body)
		return m, 0, cerr
	}
	// 1. Drain what the bufio layer already holds.
	for fb.remaining > 0 && br.Buffered() > 0 {
		take := br.Buffered()
		if int64(take) > fb.remaining {
			take = int(fb.remaining)
		}
		peek, perr := br.Peek(take)
		if perr != nil {
			return n, direct, perr
		}
		m, werr := dst.Write(peek)
		br.Discard(m)
		fb.remaining -= int64(m)
		n += int64(m)
		if werr != nil {
			return n, direct, werr
		}
	}
	// 2. Move the remainder straight off the connection.
	if fb.remaining > 0 {
		m, cerr := io.Copy(dst, io.LimitReader(raw, fb.remaining))
		fb.remaining -= m
		n += m
		direct += m
		if cerr != nil {
			return n, direct, cerr
		}
		if fb.remaining > 0 {
			return n, direct, io.ErrUnexpectedEOF
		}
	}
	return n, direct, nil
}

// Discard drains and closes the body so the connection can be recycled.
func (r *Response) Discard() error {
	_, err := io.Copy(io.Discard, r.Body)
	if cerr := r.Body.Close(); err == nil {
		err = cerr
	}
	return err
}

// fixedBody reads exactly remaining bytes.
type fixedBody struct {
	r         io.Reader
	remaining int64
}

func (b *fixedBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.r.Read(p)
	b.remaining -= int64(n)
	if err == io.EOF && b.remaining > 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *fixedBody) Close() error { return nil }

// chunkedBody decodes chunked transfer encoding, including the final CRLF
// and (ignored) trailers.
type chunkedBody struct {
	br        *bufio.Reader
	chunkLeft int64
	done      bool
	err       error
}

func (b *chunkedBody) Read(p []byte) (int, error) {
	if b.err != nil {
		return 0, b.err
	}
	if b.done {
		return 0, io.EOF
	}
	if b.chunkLeft == 0 {
		if err := b.nextChunk(); err != nil {
			b.err = err
			return 0, err
		}
		if b.done {
			return 0, io.EOF
		}
	}
	if int64(len(p)) > b.chunkLeft {
		p = p[:b.chunkLeft]
	}
	n, err := b.br.Read(p)
	b.chunkLeft -= int64(n)
	if b.chunkLeft == 0 && err == nil {
		// Consume the chunk-terminating CRLF.
		err = b.expectCRLF()
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		b.err = err
	}
	return n, err
}

func (b *chunkedBody) nextChunk() error {
	line, err := readLine(b.br)
	if err != nil {
		return err
	}
	// Hex digits, then optional extensions, which are ignored.
	digits, _, _ := strings.Cut(strings.TrimRight(line, " \t"), ";")
	size, err := strconv.ParseUint(digits, 16, 63)
	if err != nil {
		return fmt.Errorf("%w: chunk size %q", ErrMalformedResponse, line)
	}
	if size == 0 {
		// Trailers until blank line.
		for {
			l, err := readLine(b.br)
			if err != nil {
				return err
			}
			if l == "" {
				b.done = true
				return nil
			}
		}
	}
	b.chunkLeft = int64(size)
	return nil
}

func (b *chunkedBody) expectCRLF() error {
	line, err := readLine(b.br)
	if err != nil {
		return err
	}
	if line != "" {
		return fmt.Errorf("%w: missing chunk CRLF", ErrMalformedResponse)
	}
	return nil
}

func (b *chunkedBody) Close() error { return nil }

// eofBody reads to connection EOF.
type eofBody struct {
	r    io.Reader
	done bool
}

func (b *eofBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF {
		b.done = true
	}
	return n, err
}

func (b *eofBody) Close() error { return nil }

// readLine reads one line of chunked framing without its CRLF. Chunked
// framing ends every line with CRLF (RFC 9112 §7.1), so a bare LF is
// malformed, and EOF before the line ends is a truncated body.
func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err == io.EOF {
		return "", io.ErrUnexpectedEOF
	}
	if err != nil {
		return "", err
	}
	if !strings.HasSuffix(line, "\r\n") {
		return "", fmt.Errorf("%w: chunked framing line %q ends without CRLF", ErrMalformedResponse, line)
	}
	return line[:len(line)-2], nil
}
