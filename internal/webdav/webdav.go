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

// Multistatus wire structures.
type msDoc struct {
	XMLName   xml.Name     `xml:"DAV: multistatus"`
	Responses []msResponse `xml:"response"`
}

type msResponse struct {
	Href     string       `xml:"href"`
	Propstat []msPropstat `xml:"propstat"`
}

type msPropstat struct {
	Prop   msProp `xml:"prop"`
	Status string `xml:"status"`
}

type msProp struct {
	ContentLength *int64          `xml:"getcontentlength"`
	LastModified  string          `xml:"getlastmodified"`
	ResourceType  *msResourceType `xml:"resourcetype"`
}

type msResourceType struct {
	Collection *struct{} `xml:"collection"`
}

// EncodeMultistatus renders entries as a 207 multistatus body.
func EncodeMultistatus(entries []Entry) ([]byte, error) {
	doc := msDoc{}
	for _, e := range entries {
		prop := msProp{}
		if e.Dir {
			prop.ResourceType = &msResourceType{Collection: &struct{}{}}
		} else {
			size := e.Size
			prop.ContentLength = &size
		}
		if !e.ModTime.IsZero() {
			prop.LastModified = e.ModTime.UTC().Format(TimeLayout)
		}
		doc.Responses = append(doc.Responses, msResponse{
			Href: e.Href,
			Propstat: []msPropstat{{
				Prop:   prop,
				Status: "HTTP/1.1 200 OK",
			}},
		})
	}
	out, err := xml.MarshalIndent(doc, "", " ")
	if err != nil {
		return nil, err
	}
	return append([]byte(xml.Header), out...), nil
}

// MultistatusWriter streams a multistatus document entry by entry — the
// generation-side mirror of ScanMultistatus. Where EncodeMultistatus
// materializes the whole 207 body (O(entries) memory, a problem for a
// collection listing millions of objects), this writer appends each
// <response> into one reused buffer and hands it to the underlying writer
// in a single Write, never holding more than one entry. The document is
// byte-identical to EncodeMultistatus's output, so every decoder accepts it
// unchanged.
//
// Usage: NewMultistatusWriter, WriteEntry per resource, then Close (which
// emits the document frame even when no entries were written). Errors
// stick: after a write failure every later call reports the same error.
type MultistatusWriter struct {
	w       io.Writer
	buf     []byte
	started bool
	closed  bool
	err     error
}

// NewMultistatusWriter returns a writer streaming a multistatus document
// to w.
func NewMultistatusWriter(w io.Writer) *MultistatusWriter {
	return &MultistatusWriter{w: w, buf: make([]byte, 0, 512)}
}

// begin returns the reset buffer, opening the document on the first call.
func (mw *MultistatusWriter) begin() []byte {
	b := mw.buf[:0]
	if !mw.started {
		b = append(b, xml.Header...)
		b = append(b, `<multistatus xmlns="DAV:">`...)
		mw.started = true
	}
	return b
}

// flush writes b as one Write and keeps it as the buffer for the next call.
func (mw *MultistatusWriter) flush(b []byte) error {
	mw.buf = b
	_, mw.err = mw.w.Write(b)
	return mw.err
}

// WriteEntry emits one <response> element for e.
func (mw *MultistatusWriter) WriteEntry(e Entry) error {
	if mw.err != nil {
		return mw.err
	}
	if mw.closed {
		mw.err = fmt.Errorf("webdav: WriteEntry after Close")
		return mw.err
	}
	b := mw.begin()
	b = append(b, "\n <response>\n  <href>"...)
	b = appendEscaped(b, e.Href)
	b = append(b, "</href>\n  <propstat>\n   <prop>"...)
	if !e.Dir {
		b = append(b, "\n    <getcontentlength>"...)
		b = strconv.AppendInt(b, e.Size, 10)
		b = append(b, "</getcontentlength>"...)
	}
	// Always emitted, empty for a zero time — exactly what the marshaled
	// (non-omitempty) struct field produces. A formatted time holds nothing
	// that needs escaping.
	b = append(b, "\n    <getlastmodified>"...)
	if !e.ModTime.IsZero() {
		b = e.ModTime.UTC().AppendFormat(b, TimeLayout)
	}
	b = append(b, "</getlastmodified>"...)
	if e.Dir {
		b = append(b, "\n    <resourcetype>\n     <collection></collection>\n    </resourcetype>"...)
	}
	b = append(b, "\n   </prop>\n   <status>HTTP/1.1 200 OK</status>\n  </propstat>\n </response>"...)
	return mw.flush(b)
}

// Close terminates the document. An entry-less document closes to the same
// compact frame EncodeMultistatus produces for no entries.
func (mw *MultistatusWriter) Close() error {
	if mw.err != nil {
		return mw.err
	}
	if mw.closed {
		return nil
	}
	mw.closed = true
	if !mw.started {
		return mw.flush(append(mw.begin(), "</multistatus>"...))
	}
	return mw.flush(append(mw.begin(), "\n</multistatus>"...))
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

// DecodeMultistatus parses a multistatus body into entries, in document
// order, with encoding/xml. Clients decode with ScanMultistatus; this is
// the reference its tests compare against.
func DecodeMultistatus(data []byte) ([]Entry, error) {
	var doc msDoc
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("webdav: %w", err)
	}
	entries := make([]Entry, 0, len(doc.Responses))
	for _, r := range doc.Responses {
		e := Entry{Href: r.Href}
		for _, ps := range r.Propstat {
			if ps.Prop.ContentLength != nil {
				e.Size = *ps.Prop.ContentLength
			}
			if ps.Prop.ResourceType != nil && ps.Prop.ResourceType.Collection != nil {
				e.Dir = true
			}
			if ps.Prop.LastModified != "" {
				if t, err := time.Parse(TimeLayout, ps.Prop.LastModified); err == nil {
					e.ModTime = t
				}
			}
		}
		entries = append(entries, e)
	}
	return entries, nil
}
