package wire

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadResponse is differential in one direction, with net/http as the
// oracle: a response that ReadResponse accepts and whose body reads to EOF
// without error is accepted by http.ReadResponse too, with the same status
// code and the same body bytes, under GET and under HEAD framing. The
// converse is not asked: this parser may refuse what net/http tolerates.
// The one leniency it keeps is named by trailerFields.
func FuzzReadResponse(f *testing.F) {
	for _, c := range keepAliveCases {
		f.Add([]byte(c.raw))
	}
	for _, raw := range malformedResponses {
		f.Add([]byte(raw))
	}
	for _, c := range chunkedCuts {
		f.Add([]byte(chunkedHead + c.body))
		f.Add([]byte(chunkedHead + c.body + "0\r\n\r\n"))
	}
	for _, raw := range []string{
		chunkedHead + "4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n",
		chunkedHead + "5;ext=1\r\nhello\r\n0\r\nX-Trailer: v\r\n\r\n",
		chunkedHead + "7fffffffffffffff\r\nxx",
		chunkedHead + "8000000000000000\r\nxx",
		"HTTP/1.1 200 OK\r\nContent-Length: 9223372036854775807\r\n\r\nxx",
		"HTTP/1.1 200 OK\r\nContent-Length: 9223372036854775808\r\n\r\nxx",
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello",
		"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
		"HTTP/1.1 204 No Content\r\n\r\nHTTP/1.1 200 OK\r\n",
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 201 Created\r\n\r\n",
		"HTTP/1.1 304 Not Modified\r\nContent-Length: 10\r\n\r\n",
		"HTTP/1.0 200 OK\r\n\r\nall the way to eof",
		"HTTP/1.1 200 OK\r\nContent-Length: 700\r\n\r\n",
	} {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, method := range []string{"GET", "HEAD"} {
			rd := bytes.NewReader(data)
			br := bufio.NewReader(rd)
			resp, err := ReadResponse(br, method)
			if err != nil {
				continue
			}
			bodyStart := len(data) - br.Buffered() - rd.Len()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				continue
			}
			if _, ok := resp.Body.(*chunkedBody); ok && trailerFields(data[bodyStart:]) {
				continue
			}
			want, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(data)), &http.Request{Method: method})
			if err != nil {
				t.Fatalf("%s: accepted %q, net/http refuses it: %v", method, data, err)
			}
			wantBody, err := io.ReadAll(want.Body)
			if err != nil {
				t.Fatalf("%s: read %q from %q, net/http's body read fails: %v", method, body, data, err)
			}
			if resp.StatusCode != want.StatusCode || !bytes.Equal(body, wantBody) {
				t.Fatalf("%s: %q reads as %d %q, net/http reads %d %q",
					method, data, resp.StatusCode, body, want.StatusCode, wantBody)
			}
		}
	})
}

// trailerFields reports whether a chunked body that ReadResponse read
// without error carries trailer fields after its last chunk. This parser
// reads trailer lines only to find the end of the message and discards
// them, so it does not hold them to net/http's field syntax or its 4 KiB
// bound. Nothing in this client reads a trailer, so a field net/http would
// refuse cannot change the body it returns; the leniency is kept. Framing
// that does not hold up, which only a parser bug lets through, reports no
// trailer, so the comparison with net/http still runs.
func trailerFields(chunked []byte) bool {
	for {
		line, rest, ok := bytes.Cut(chunked, []byte("\r\n"))
		digits, _, _ := strings.Cut(strings.TrimRight(string(line), " \t"), ";")
		size, err := strconv.ParseUint(digits, 16, 63)
		switch {
		case !ok || err != nil:
			return false
		case size == 0:
			return len(rest) > 0 && !bytes.HasPrefix(rest, []byte("\r\n"))
		case uint64(len(rest)) < size+2:
			return false
		}
		chunked = rest[size+2:]
	}
}
