// Package wire implements the HTTP/1.1 client wire protocol used by the
// davix engine: request serialization, response parsing (status line and
// header block per RFC 9112, content-length, chunked and close-delimited
// bodies), and keep-alive accounting.
//
// davix deliberately speaks plain standards-compliant HTTP/1.1 — the paper's
// compatibility requirement rules out SPDY/SCTP/MUX — so this package is a
// from-scratch, minimal, allocation-conscious HTTP implementation on top of
// any net.Conn (real TCP or netsim). Neither net/http nor net/textproto is
// used: a header is a slice of fields, and a parsed response holds its whole
// header block in one string that every field is sliced from.
package wire

import (
	"bufio"
	"io"
	"slices"
	"strings"
)

// Header is an HTTP header block: its fields in the order they were added or
// received. Lookup is ASCII case-insensitive. Set and Add store keys in
// canonical form ("content-type" → "Content-Type"); a parsed response keeps
// each key as it arrived.
type Header []field

// field is one header line.
type field struct{ key, value string }

// index returns the position of key's first field, or -1.
func (h Header) index(key string) int {
	for i, f := range h {
		if strings.EqualFold(f.key, key) {
			return i
		}
	}
	return -1
}

// Get returns the first value of key, or "".
func (h Header) Get(key string) string {
	if i := h.index(key); i >= 0 {
		return h[i].value
	}
	return ""
}

// Values returns all values of key, in order.
func (h Header) Values(key string) []string {
	var vs []string
	for _, f := range h {
		if strings.EqualFold(f.key, key) {
			vs = append(vs, f.value)
		}
	}
	return vs
}

// Set replaces every value of key with value.
func (h *Header) Set(key, value string) {
	i := h.index(key)
	if i < 0 {
		h.Add(key, value)
		return
	}
	(*h)[i].value = value
	rest := slices.DeleteFunc((*h)[i+1:], func(f field) bool { return strings.EqualFold(f.key, key) })
	*h = (*h)[:i+1+len(rest)]
}

// Add appends value to key.
func (h *Header) Add(key, value string) { *h = append(*h, field{canonical(key), value}) }

// Del removes every value of key.
func (h *Header) Del(key string) {
	*h = slices.DeleteFunc(*h, func(f field) bool { return strings.EqualFold(f.key, key) })
}

// Clone returns a copy of h that shares no storage with it.
func (h Header) Clone() Header { return slices.Clone(h) }

// Write serializes the header block in sorted key order (deterministic
// output simplifies testing) followed by the terminating CRLF.
func (h Header) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := h.writeTo(bw, nil); err != nil {
		return err
	}
	return bw.Flush()
}

// writeTo is Write onto a buffered writer, with each line of managed sent
// in place of whatever h holds under the same key. Lines go out sorted by
// key, the values of one key in the order they were added. bw holds on to
// the first write error; the last write reports it.
func (h Header) writeTo(bw *bufio.Writer, managed []field) error {
	var store [16]field
	fs := append(store[:0], managed...)
	for _, f := range h {
		if !slices.ContainsFunc(managed, func(m field) bool { return strings.EqualFold(m.key, f.key) }) {
			fs = append(fs, f)
		}
	}
	slices.SortStableFunc(fs, func(a, b field) int { return strings.Compare(a.key, b.key) })
	for _, f := range fs {
		bw.WriteString(f.key)
		bw.WriteString(": ")
		bw.WriteString(f.value)
		bw.WriteString("\r\n")
	}
	_, err := bw.WriteString("\r\n")
	return err
}

// canonical returns key with its first letter and every letter after a
// hyphen in upper case and the others in lower case, as net/textproto
// does. A key already in that form, or holding a byte that is not a token
// character, is returned as is, without allocating.
func canonical(key string) string {
	var b []byte
	upper := true
	for i := 0; i < len(key); i++ {
		c := key[i]
		if !isTchar(c) {
			return key
		}
		if upper && 'a' <= c && c <= 'z' || !upper && 'A' <= c && c <= 'Z' {
			if b == nil {
				b = []byte(key)
			}
			b[i] = c ^ ('a' - 'A') // the other case
		}
		upper = c == '-'
	}
	if b == nil {
		return key
	}
	return string(b)
}

// isTchar reports whether c may appear in a field name (RFC 9110 §5.6.2):
// a digit, a letter, or one of !#$%&'*+-.^_`|~.
func isTchar(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
		strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0
}

// isFieldValueByte reports whether c may appear in a field value (RFC 9110
// §5.5): visible ASCII, space, horizontal tab, or obs-text.
func isFieldValueByte(c byte) bool {
	return c == ' ' || c == '\t' || c >= 0x21 && c != 0x7f
}

// hasToken reports whether the comma-separated header value contains token
// (case-insensitive). Used for Connection and Transfer-Encoding checks.
func hasToken(value, token string) bool {
	for {
		part, rest, more := strings.Cut(value, ",")
		if strings.EqualFold(strings.TrimSpace(part), token) {
			return true
		}
		if !more {
			return false
		}
		value = rest
	}
}
