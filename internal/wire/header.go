// Package wire implements the HTTP/1.1 client wire protocol used by the
// davix engine: request serialization, response parsing (content-length,
// chunked and close-delimited bodies), and keep-alive accounting.
//
// davix deliberately speaks plain standards-compliant HTTP/1.1 — the paper's
// compatibility requirement rules out SPDY/SCTP/MUX — so this package is a
// from-scratch, minimal, allocation-conscious HTTP implementation on top of
// any net.Conn (real TCP or netsim).
package wire

import (
	"bufio"
	"io"
	"net/textproto"
	"slices"
	"strings"
)

// Header is a case-insensitive (canonicalized) HTTP header map.
type Header map[string][]string

// canonical returns the canonical form of a header key ("content-type" →
// "Content-Type").
func canonical(key string) string { return textproto.CanonicalMIMEHeaderKey(key) }

// Set replaces the value of key.
func (h Header) Set(key, value string) { h[canonical(key)] = []string{value} }

// Add appends value to key.
func (h Header) Add(key, value string) {
	ck := canonical(key)
	h[ck] = append(h[ck], value)
}

// Get returns the first value of key, or "".
func (h Header) Get(key string) string {
	v := h[canonical(key)]
	if len(v) == 0 {
		return ""
	}
	return v[0]
}

// Values returns all values of key.
func (h Header) Values(key string) []string { return h[canonical(key)] }

// Del removes key.
func (h Header) Del(key string) { delete(h, canonical(key)) }

// Clone returns a deep copy of h.
func (h Header) Clone() Header {
	c := make(Header, len(h))
	for k, vs := range h {
		c[k] = append([]string(nil), vs...)
	}
	return c
}

// Write serializes the header block in sorted key order (deterministic
// output simplifies testing) followed by the terminating CRLF.
func (h Header) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := h.writeTo(bw, nil); err != nil {
		return err
	}
	return bw.Flush()
}

// field is one header line.
type field struct{ key, value string }

func findField(fs []field, key string) int {
	return slices.IndexFunc(fs, func(f field) bool { return f.key == key })
}

// writeTo is Write onto a buffered writer, with each line of managed sent
// in place of whatever h holds under the same key. bw holds on to the first
// write error; the last write reports it.
func (h Header) writeTo(bw *bufio.Writer, managed []field) error {
	var store [16]string
	keys := store[:0]
	for k := range h {
		if findField(managed, k) < 0 {
			keys = append(keys, k)
		}
	}
	for _, f := range managed {
		keys = append(keys, f.key)
	}
	slices.Sort(keys)
	for _, k := range keys {
		vs := h[k]
		if i := findField(managed, k); i >= 0 {
			vs = []string{managed[i].value}
		}
		for _, v := range vs {
			bw.WriteString(k)
			bw.WriteString(": ")
			bw.WriteString(v)
			bw.WriteString("\r\n")
		}
	}
	_, err := bw.WriteString("\r\n")
	return err
}

// hasToken reports whether the comma-separated header value contains token
// (case-insensitive). Used for Connection and Transfer-Encoding checks.
func hasToken(value, token string) bool {
	for _, part := range strings.Split(value, ",") {
		if strings.EqualFold(strings.TrimSpace(part), token) {
			return true
		}
	}
	return false
}
