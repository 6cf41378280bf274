package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Response is a parsed HTTP response. Body must be drained (read to EOF) or
// closed before the underlying connection can be reused; KeepAlive reports
// whether reuse is permitted at all. A Response must not be copied once
// parsed: its Header and Body point into it.
type Response struct {
	// StatusCode is the numeric status (200, 206, 404, ...).
	StatusCode int

	// Status is the full status line reason ("206 Partial Content").
	Status string

	// Proto is the protocol version string ("HTTP/1.1").
	Proto string

	// Header holds the response headers, each key as the server sent it.
	// Its strings are the response's own: they stay valid after the
	// connection has moved on to other exchanges.
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

	// fixed is Body for a Content-Length-framed or bodyless message, and
	// store backs Header's first fields: a response with a gateway's
	// header set costs this struct and one string for its header block.
	fixed fixedBody
	store [8]field
}

// ErrMalformedResponse reports a response the parser cannot read.
var ErrMalformedResponse = errors.New("wire: malformed response")

// maxHeadBytes bounds a response's status line and header block.
const maxHeadBytes = 1 << 20

// ReadResponse parses one response for the given request method from br.
func ReadResponse(br *bufio.Reader, method string) (*Response, error) {
	resp := new(Response)
	if err := ReadResponseInto(resp, br, method); err != nil {
		return nil, err
	}
	return resp, nil
}

// ReadResponseInto is ReadResponse into a Response the caller allocated
// (the client embeds one in its own response type), overwriting whatever
// resp held.
func ReadResponseInto(resp *Response, br *bufio.Reader, method string) error {
	head, err := readHead(br)
	if err != nil {
		return err
	}
	if err := resp.parseHead(head); err != nil {
		return err
	}
	proto, code, h := resp.Proto, resp.StatusCode, resp.Header

	// Keep-alive: HTTP/1.1 defaults to persistent unless "Connection: close";
	// HTTP/1.0 requires an explicit keep-alive. Body framing per RFC 9112
	// §6.3: the only transfer coding is chunked, alone, and an HTTP/1.0
	// message carrying one has faulty framing (§6.1). Every Content-Length
	// field must be a decimal, and a repeated one the same text.
	closing, keepAlive := false, false
	te, teFields, cl := "", 0, ""
	length := int64(-1)
	for _, f := range h {
		switch {
		case strings.EqualFold(f.key, "Connection"):
			closing = closing || hasToken(f.value, "close")
			keepAlive = keepAlive || hasToken(f.value, "keep-alive")
		case strings.EqualFold(f.key, "Transfer-Encoding"):
			te, teFields = f.value, teFields+1
		case strings.EqualFold(f.key, "Content-Length"):
			n, err := strconv.ParseUint(f.value, 10, 63)
			if err != nil || (length >= 0 && f.value != cl) {
				return fmt.Errorf("%w: content-length %q", ErrMalformedResponse, f.value)
			}
			cl, length = f.value, int64(n)
		}
	}
	if proto == "HTTP/1.1" {
		resp.KeepAlive = !closing
	} else {
		resp.KeepAlive = keepAlive
	}
	chunked := teFields > 0
	if chunked && (proto != "HTTP/1.1" || teFields != 1 || !strings.EqualFold(te, "chunked")) {
		return fmt.Errorf("%w: transfer-encoding %q", ErrMalformedResponse, h.Values("Transfer-Encoding"))
	}
	switch {
	case method == "HEAD" || code/100 == 1 || code == 204 || code == 304:
		resp.ContentLength = 0
		resp.fixed = fixedBody{r: br, remaining: 0}
		resp.Body = &resp.fixed
	case chunked:
		resp.ContentLength = -1
		resp.Body = &chunkedBody{br: br}
	case length >= 0:
		resp.ContentLength = length
		resp.fixed = fixedBody{r: br, remaining: length}
		resp.Body = &resp.fixed
	default:
		// Close-delimited: body runs to connection EOF; never reusable.
		resp.ContentLength = -1
		resp.KeepAlive = false
		resp.Body = &eofBody{r: br}
	}
	return nil
}

// readHead returns the status line and header block, through the blank
// line that ends them, as one string. The lines are gathered in a stack
// buffer, which a block over 1 KiB outgrows.
func readHead(br *bufio.Reader) (string, error) {
	var stack [1 << 10]byte
	head := stack[:0]
	for lineStart := 0; ; lineStart = len(head) {
		for {
			frag, err := br.ReadSlice('\n')
			head = append(head, frag...)
			if len(head) > maxHeadBytes {
				return "", fmt.Errorf("%w: header block over %d bytes", ErrMalformedResponse, maxHeadBytes)
			}
			if err == nil {
				break
			}
			if err == io.EOF && len(head) > 0 {
				err = fmt.Errorf("%w: header block cut short: %w", ErrMalformedResponse, io.ErrUnexpectedEOF)
			}
			if err != bufio.ErrBufferFull {
				return "", err
			}
		}
		if line := head[lineStart:]; lineStart > 0 && (len(line) == 1 || len(line) == 2 && line[0] == '\r') {
			return string(head), nil
		}
	}
}

// parseHead parses the status line and the header fields of head, a block
// readHead returned, slicing every string it keeps out of head. The field
// syntax is RFC 9112 §5: a token, a colon, and a value whose surrounding
// whitespace is not part of it. Lines end in CRLF or a bare LF (§2.2), and
// an obs-fold — a line starting with whitespace — continues the previous
// value after one space (§5.2).
func (r *Response) parseHead(head string) error {
	line, rest := cutLine(head)
	// An HTTP/1.x client reads HTTP/1.0 and HTTP/1.1 framing only; the
	// status code is three digits (RFC 9112 §4).
	proto, status, ok := strings.Cut(line, " ")
	if !ok || (proto != "HTTP/1.1" && proto != "HTTP/1.0") {
		return fmt.Errorf("%w: status line %q", ErrMalformedResponse, line)
	}
	codeStr, _, _ := strings.Cut(status, " ")
	code, err := strconv.Atoi(codeStr)
	if err != nil || len(codeStr) != 3 || code < 100 || code > 599 {
		return fmt.Errorf("%w: status code in %q", ErrMalformedResponse, line)
	}
	r.StatusCode, r.Status, r.Proto = code, status, proto
	r.Header = r.store[:0]
	for line, rest = cutLine(rest); line != ""; line, rest = cutLine(rest) {
		if line[0] == ' ' || line[0] == '\t' {
			more := strings.Trim(line, " \t")
			if len(r.Header) == 0 || !every(more, isFieldValueByte) {
				return fmt.Errorf("%w: header line %q", ErrMalformedResponse, line)
			}
			f := &r.Header[len(r.Header)-1]
			f.value = strings.TrimLeft(f.value+" "+more, " \t")
			continue
		}
		key, value, ok := strings.Cut(line, ":")
		value = strings.Trim(value, " \t")
		if !ok || key == "" || !every(key, isTchar) || !every(value, isFieldValueByte) {
			return fmt.Errorf("%w: header line %q", ErrMalformedResponse, line)
		}
		r.Header = append(r.Header, field{key, value})
	}
	return nil
}

// cutLine splits s after its first line, dropping the line's CRLF or LF.
func cutLine(s string) (line, rest string) {
	line, rest, _ = strings.Cut(s, "\n")
	return strings.TrimSuffix(line, "\r"), rest
}

// every reports whether ok holds for every byte of s.
func every(s string, ok func(byte) bool) bool {
	for i := 0; i < len(s); i++ {
		if !ok(s[i]) {
			return false
		}
	}
	return true
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

// Remaining is how many body bytes are left to read, or -1 when the
// framing does not say (chunked or close-delimited).
func (r *Response) Remaining() int64 {
	if b, ok := r.Body.(*fixedBody); ok {
		return b.remaining
	}
	return -1
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
