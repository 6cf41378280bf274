// Package webdav implements the minimal WebDAV (RFC 4918) document subset
// davix needs for namespace operations: PROPFIND multistatus responses with
// size, type and modification time properties. The HTTP server encodes
// these documents; the davix client decodes them for Stat and List.
package webdav

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"time"
	"unicode"
	"unicode/utf8"

	"godavix/internal/bufpool"
)

// ContentType is the MIME type used for WebDAV XML bodies.
const ContentType = "application/xml; charset=utf-8"

// TimeLayout is the getlastmodified property format (RFC 1123).
const TimeLayout = time.RFC1123

// Entry is one resource description extracted from (or destined for) a
// multistatus document.
type Entry struct {
	// Href is the resource path.
	Href string
	// Size is the content length (0 for collections).
	Size int64
	// Dir reports whether the resource is a collection.
	Dir bool
	// ModTime is the last modification time (zero if absent).
	ModTime time.Time
}

// MultistatusWriter streams a multistatus document entry by entry — the
// generation-side mirror of ScanMultistatus. The document is never
// materialized: each <response> is appended to one pooled 64 KiB buffer,
// and the buffer goes to the underlying writer in one Write whenever it
// holds flushAt bytes or more, and at Close. Memory stays bounded whatever
// the collection size, and a listing costs one Write per 32 KiB rather
// than one per entry. The document is compact — no whitespace between
// elements, which RFC 4918 gives no meaning — and byte-identical to
// xml.Marshal of the same entries (after xml.Header), so every decoder
// accepts it.
//
// Usage: NewMultistatusWriter, WriteEntry per resource, then Close (which
// emits the document frame even when no entries were written, and returns
// the buffer to the pool on every path). Errors stick: after a write
// failure every later call reports the same error.
type MultistatusWriter struct {
	w      io.Writer
	buf    []byte // pooled; nil until the document opens and after Close
	closed bool
	err    error
}

const (
	// msBufSize is the pooled buffer's size. Below flushAt it holds any
	// entry up to 32 KiB without growing.
	msBufSize = 64 << 10
	// flushAt is the fill at which WriteEntry hands the buffer on.
	flushAt = 32 << 10
)

// NewMultistatusWriter returns a writer streaming a multistatus document
// to w.
func NewMultistatusWriter(w io.Writer) *MultistatusWriter {
	return &MultistatusWriter{w: w}
}

// open returns the buffer, taking it from the pool and opening the
// document on first use.
func (mw *MultistatusWriter) open() []byte {
	if mw.buf == nil {
		mw.buf = append(bufpool.Get(msBufSize)[:0], xml.Header+`<multistatus xmlns="DAV:">`...)
	}
	return mw.buf
}

// flush hands the buffered bytes to the underlying writer in one Write.
func (mw *MultistatusWriter) flush() error {
	_, mw.err = mw.w.Write(mw.buf)
	mw.buf = mw.buf[:0]
	return mw.err
}

// WriteEntry appends one <response> element for e.
func (mw *MultistatusWriter) WriteEntry(e Entry) error {
	if mw.err != nil {
		return mw.err
	}
	if mw.closed {
		mw.err = fmt.Errorf("webdav: WriteEntry after Close")
		return mw.err
	}
	b := mw.open()
	b = append(b, "<response><href>"...)
	b = appendEscaped(b, e.Href)
	b = append(b, "</href><propstat><prop>"...)
	if !e.Dir {
		b = append(b, "<getcontentlength>"...)
		b = strconv.AppendInt(b, e.Size, 10)
		b = append(b, "</getcontentlength>"...)
	}
	// Always emitted, empty for a zero time — exactly what the marshaled
	// (non-omitempty) struct field produces. A formatted time holds nothing
	// that needs escaping.
	b = append(b, "<getlastmodified>"...)
	if !e.ModTime.IsZero() {
		b = AppendRFC1123(b, e.ModTime, "UTC")
	}
	b = append(b, "</getlastmodified>"...)
	if e.Dir {
		b = append(b, "<resourcetype><collection></collection></resourcetype>"...)
	}
	mw.buf = append(b, "</prop><status>HTTP/1.1 200 OK</status></propstat></response>"...)
	if len(mw.buf) >= flushAt {
		return mw.flush()
	}
	return nil
}

// Close terminates the document (opening it first when no entry was
// written), writes what is buffered and returns the buffer to the pool.
// After a write error Close writes nothing and returns that error. A later
// Close writes nothing and reports the sticky error, if any.
func (mw *MultistatusWriter) Close() error {
	if mw.closed {
		return mw.err
	}
	mw.closed = true
	if mw.err == nil {
		mw.buf = append(mw.open(), "</multistatus>"...)
		mw.flush()
	}
	bufpool.Put(mw.buf)
	mw.buf = nil
	return mw.err
}

// AppendRFC1123 appends t, in UTC, as "Mon, 02 Jan 2006 15:04:05 " followed
// by zone: for years 0–9999 exactly what t.UTC().AppendFormat writes for
// TimeLayout with zone "UTC" and for http.TimeFormat with zone "GMT", but
// field by field instead of through the layout interpreter. Other years,
// which do not fit the fixed width, go through AppendFormat itself. It is
// the mirror image of ParseRFC1123.
func AppendRFC1123(b []byte, t time.Time, zone string) []byte {
	t = t.UTC()
	year, month, day := t.Date()
	if year < 0 || year > 9999 {
		return append(t.AppendFormat(b, "Mon, 02 Jan 2006 15:04:05 "), zone...)
	}
	hour, minute, sec := t.Clock()
	wd, mo := int(t.Weekday())*3, (int(month)-1)*3
	b = append(b, "SunMonTueWedThuFriSat"[wd:wd+3]...)
	b = append(b, ',', ' ', byte('0'+day/10), byte('0'+day%10), ' ')
	b = append(b, "JanFebMarAprMayJunJulAugSepOctNovDec"[mo:mo+3]...)
	b = append(b, ' ', byte('0'+year/1000), byte('0'+year/100%10), byte('0'+year/10%10), byte('0'+year%10),
		' ', byte('0'+hour/10), byte('0'+hour%10), ':', byte('0'+minute/10), byte('0'+minute%10),
		':', byte('0'+sec/10), byte('0'+sec%10), ' ')
	return append(b, zone...)
}

// appendEscaped appends s escaped exactly as xml.EscapeText (and the
// marshaler) escape character data: the five markup characters, tab,
// newline and carriage return as references, and every byte that is
// invalid UTF-8 or every rune outside XML's Char production as U+FFFD.
func appendEscaped(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		var esc string
		if c := s[i]; c < utf8.RuneSelf {
			i++
			switch c {
			case '"':
				esc = "&#34;"
			case '\'':
				esc = "&#39;"
			case '&':
				esc = "&amp;"
			case '<':
				esc = "&lt;"
			case '>':
				esc = "&gt;"
			case '\t':
				esc = "&#x9;"
			case '\n':
				esc = "&#xA;"
			case '\r':
				esc = "&#xD;"
			default:
				if c >= 0x20 {
					continue
				}
				esc = "\uFFFD"
			}
			b = append(b, s[last:i-1]...)
		} else {
			r, w := utf8.DecodeRuneInString(s[i:])
			i += w
			if isXMLChar(r) && (r != utf8.RuneError || w > 1) {
				continue
			}
			esc = "\uFFFD"
			b = append(b, s[last:i-w]...)
		}
		b = append(b, esc...)
		last = i
	}
	return append(b, s[last:]...)
}

// isXMLChar reports whether r is in XML 1.0's Char production.
func isXMLChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= unicode.MaxRune
}

// DecodeMultistatusStream decodes a multistatus document off r into a slice
// of entries, in document order: ScanMultistatus, appending.
func DecodeMultistatusStream(r io.Reader) ([]Entry, error) {
	var entries []Entry
	if err := ScanMultistatus(r, func(e Entry) error { entries = append(entries, e); return nil }); err != nil {
		return nil, err
	}
	return entries, nil
}
