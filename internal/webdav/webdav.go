// Package webdav implements the minimal WebDAV (RFC 4918) document subset
// davix needs for namespace operations: PROPFIND multistatus responses with
// size, type and modification time properties. The HTTP server encodes
// these documents; the davix client decodes them for Stat and List.
package webdav

import (
	"bufio"
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"time"
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
// generation-side mirror of DecodeMultistatusStream. Where
// EncodeMultistatus materializes the whole 207 body (O(entries) memory, a
// problem for a collection listing millions of objects), this writer emits
// each <response> as it is produced and never holds more than one entry.
// The document shape is byte-identical to EncodeMultistatus's output, so
// every existing decoder accepts it unchanged.
//
// Usage: NewMultistatusWriter, WriteEntry per resource, then Close (which
// emits the document frame even when no entries were written). Errors
// stick: after a write failure every later call reports the same error.
type MultistatusWriter struct {
	w       *bufio.Writer
	started bool
	closed  bool
	err     error
}

// NewMultistatusWriter returns a writer streaming a multistatus document
// to w.
func NewMultistatusWriter(w io.Writer) *MultistatusWriter {
	return &MultistatusWriter{w: bufio.NewWriter(w)}
}

// start emits the document header and root element opening.
func (mw *MultistatusWriter) start() {
	mw.w.WriteString(xml.Header)
	mw.w.WriteString(`<multistatus xmlns="DAV:">`)
	mw.started = true
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
	if !mw.started {
		mw.start()
	}
	w := mw.w
	w.WriteString("\n <response>\n  <href>")
	xml.EscapeText(w, []byte(e.Href))
	w.WriteString("</href>\n  <propstat>\n   <prop>")
	if !e.Dir {
		w.WriteString("\n    <getcontentlength>")
		w.WriteString(strconv.FormatInt(e.Size, 10))
		w.WriteString("</getcontentlength>")
	}
	// Always emitted, empty for a zero time — exactly what the marshaled
	// (non-omitempty) struct field produces.
	w.WriteString("\n    <getlastmodified>")
	if !e.ModTime.IsZero() {
		xml.EscapeText(w, []byte(e.ModTime.UTC().Format(TimeLayout)))
	}
	w.WriteString("</getlastmodified>")
	if e.Dir {
		w.WriteString("\n    <resourcetype>\n     <collection></collection>\n    </resourcetype>")
	}
	w.WriteString("\n   </prop>\n   <status>HTTP/1.1 200 OK</status>\n  </propstat>\n </response>")
	mw.err = w.Flush()
	return mw.err
}

// Close terminates the document and flushes. An entry-less document closes
// to the same compact frame EncodeMultistatus produces for no entries.
func (mw *MultistatusWriter) Close() error {
	if mw.err != nil {
		return mw.err
	}
	if mw.closed {
		return nil
	}
	mw.closed = true
	if !mw.started {
		mw.start()
		mw.w.WriteString("</multistatus>")
	} else {
		mw.w.WriteString("\n</multistatus>")
	}
	mw.err = mw.w.Flush()
	return mw.err
}

// Element local names the multistatus schema cares about, as byte slices
// so the token loop compares without allocating.
var (
	elMultistatus = []byte("multistatus")
	elResponse    = []byte("response")
	elHref        = []byte("href")
	elLength      = []byte("getcontentlength")
	elModified    = []byte("getlastmodified")
	elCollection  = []byte("collection")
)

// DecodeMultistatusStream parses a multistatus document into entries, in
// document order, straight off r — the body is never materialized and no
// intermediate document is built. The tag scanner is hand-rolled (like the
// HTTP codec in internal/wire) because encoding/xml allocates a token box
// and name string per tag, which dominates the cost of decoding large
// collections; this path allocates a handful of objects per entry.
// Namespace prefixes are ignored: only local element names matter, which
// accepts both this package's default-namespace encoding and the
// "<D:multistatus xmlns:D=...>" style real WebDAV servers emit.
func DecodeMultistatusStream(r io.Reader) ([]Entry, error) {
	s := newMsScanner(r)
	var (
		entries  []Entry
		cur      Entry
		inResp   bool
		depth    int // element depth inside the current <response>
		field    int // leaf property currently being captured
		open     int // overall element depth: must return to 0 by EOF
		rootSeen bool
	)
	for {
		kind, err := s.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("webdav: %w", err)
		}
		switch kind {
		case msStart:
			open++
			if !rootSeen {
				// The document element must be a multistatus, as the
				// legacy decoder's xml.Unmarshal enforced.
				if !bytes.Equal(s.name, elMultistatus) {
					return nil, fmt.Errorf("webdav: document element is <%s>, want <multistatus>", s.name)
				}
				rootSeen = true
			}
			if !inResp {
				if bytes.Equal(s.name, elResponse) {
					inResp = true
					cur = Entry{}
					depth = 0
				}
				continue
			}
			depth++
			switch {
			case bytes.Equal(s.name, elHref):
				field = fHref
				s.startCapture()
			case bytes.Equal(s.name, elLength):
				field = fLength
				s.startCapture()
			case bytes.Equal(s.name, elModified):
				field = fModified
				s.startCapture()
			case bytes.Equal(s.name, elCollection):
				cur.Dir = true
			}
		case msEnd:
			open--
			if open < 0 {
				return nil, fmt.Errorf("webdav: unbalanced </%s>", s.name)
			}
			if !inResp {
				continue
			}
			if depth == 0 {
				if bytes.Equal(s.name, elResponse) {
					entries = append(entries, cur)
					inResp = false
				}
				continue
			}
			depth--
			ended := fNone
			switch {
			case bytes.Equal(s.name, elHref):
				ended = fHref
			case bytes.Equal(s.name, elLength):
				ended = fLength
			case bytes.Equal(s.name, elModified):
				ended = fModified
			}
			if ended == fNone || ended != field {
				continue
			}
			text := s.stopCapture()
			switch field {
			case fHref:
				cur.Href = string(text)
			case fLength:
				n, err := strconv.ParseInt(string(bytes.TrimSpace(text)), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("webdav: getcontentlength %q: %w", text, err)
				}
				cur.Size = n
			case fModified:
				// Unparsable times are dropped, matching DecodeMultistatus.
				if ts, err := time.Parse(TimeLayout, string(text)); err == nil {
					cur.ModTime = ts
				}
			}
			field = fNone
		}
	}
	if !rootSeen {
		return nil, fmt.Errorf("webdav: %w: no multistatus element", io.ErrUnexpectedEOF)
	}
	if open != 0 {
		// The body ended before the document element closed — a dropped
		// connection on a close-delimited response must never read as a
		// complete (possibly shorter) listing.
		return nil, fmt.Errorf("webdav: %w: %d elements unclosed", io.ErrUnexpectedEOF, open)
	}
	return entries, nil
}

// Scanner token kinds.
const (
	msStart = iota
	msEnd
)

// Captured property fields.
const (
	fNone = iota
	fHref
	fLength
	fModified
)

// msScanner is a minimal XML tag scanner for multistatus documents: it
// yields start/end tags with prefix-stripped local names and accumulates
// entity-decoded character data on demand. It reuses its buffers across
// tokens, so returned names and text are only valid until the next call.
type msScanner struct {
	br *bufio.Reader

	// name is the local name of the last start or end tag.
	name []byte
	// pendEnd is set when the last tag was self-closing: the matching
	// virtual end tag is emitted on the next call, from pendName.
	pendEnd  bool
	pendName []byte

	capture bool
	text    []byte
}

func newMsScanner(r io.Reader) *msScanner {
	return &msScanner{br: bufio.NewReader(r)}
}

// startCapture begins accumulating character data into the text buffer.
func (s *msScanner) startCapture() {
	s.capture = true
	s.text = s.text[:0]
}

// stopCapture ends accumulation and returns the collected bytes (valid
// until the next startCapture).
func (s *msScanner) stopCapture() []byte {
	s.capture = false
	return s.text
}

// next advances to the next start or end tag. Character data between tags
// is accumulated into text while capture is on. Returns io.EOF cleanly at
// end of input, io.ErrUnexpectedEOF when the input ends inside a token.
func (s *msScanner) next() (int, error) {
	if s.pendEnd {
		s.pendEnd = false
		s.name = s.pendName
		return msEnd, nil
	}
	for {
		c, err := s.br.ReadByte()
		if err != nil {
			return 0, err // io.EOF at a token boundary is the clean end
		}
		if c != '<' {
			if s.capture {
				if c == '&' {
					if err := s.appendEntity(); err != nil {
						return 0, err
					}
				} else {
					s.text = append(s.text, c)
				}
			}
			continue
		}
		c, err = s.br.ReadByte()
		if err != nil {
			return 0, io.ErrUnexpectedEOF
		}
		switch c {
		case '?':
			if err := s.skipUntil("?>"); err != nil {
				return 0, err
			}
		case '!':
			if err := s.markup(); err != nil {
				return 0, err
			}
		case '/':
			if err := s.readName('>'); err != nil {
				return 0, err
			}
			return msEnd, nil
		default:
			if err := s.br.UnreadByte(); err != nil {
				return 0, err
			}
			return s.startTag()
		}
	}
}

// startTag scans "<name attrs...>" or "<name attrs.../>", with the opening
// '<' already consumed.
func (s *msScanner) startTag() (int, error) {
	if err := s.readName(0); err != nil {
		return 0, err
	}
	// Skip attributes, respecting quoted values that may contain '>'.
	var quote byte
	selfClose := false
	for {
		c, err := s.br.ReadByte()
		if err != nil {
			return 0, io.ErrUnexpectedEOF
		}
		if quote != 0 {
			if c == quote {
				quote = 0
			}
			continue
		}
		switch c {
		case '"', '\'':
			quote = c
			selfClose = false
		case '/':
			selfClose = true
		case '>':
			if selfClose {
				s.pendEnd = true
				s.pendName = append(s.pendName[:0], s.name...)
			}
			return msStart, nil
		default:
			selfClose = false
		}
	}
}

// readName scans an element name into s.name, stripping any namespace
// prefix. term, when non-zero, is the only byte allowed to end the name
// (the end-tag case); otherwise whitespace, '/' and '>' end it and are
// pushed back for the attribute scanner.
func (s *msScanner) readName(term byte) error {
	s.name = s.name[:0]
	for {
		c, err := s.br.ReadByte()
		if err != nil {
			return io.ErrUnexpectedEOF
		}
		switch {
		case c == ':':
			// Namespace prefix: restart the local name.
			s.name = s.name[:0]
		case c == term:
			return nil
		case term == 0 && (c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '/' || c == '>'):
			return s.br.UnreadByte()
		case term != 0 && (c == ' ' || c == '\t' || c == '\r' || c == '\n'):
			// Whitespace before the end-tag '>' is legal; skip to it.
		default:
			s.name = append(s.name, c)
		}
	}
}

// markup handles "<!" constructs: comments, CDATA sections (captured as
// text) and other declarations (skipped).
func (s *msScanner) markup() error {
	peek, _ := s.br.Peek(7)
	if len(peek) >= 2 && peek[0] == '-' && peek[1] == '-' {
		s.br.Discard(2)
		return s.skipUntil("-->")
	}
	if len(peek) >= 7 && string(peek) == "[CDATA[" {
		s.br.Discard(7)
		return s.cdata()
	}
	// Other declaration (<!DOCTYPE ...>): skip to '>', respecting quotes.
	var quote byte
	for {
		c, err := s.br.ReadByte()
		if err != nil {
			return io.ErrUnexpectedEOF
		}
		if quote != 0 {
			if c == quote {
				quote = 0
			}
			continue
		}
		switch c {
		case '"', '\'':
			quote = c
		case '>':
			return nil
		}
	}
}

// cdata copies a CDATA section into the text buffer (when capturing) until
// the "]]>" terminator. A two-byte lookbehind window makes overlapping
// near-matches exact: content may freely end in "]" or "]]" (e.g.
// "/data/x[1]" arriving as "/data/x[1]]]>").
func (s *msScanner) cdata() error {
	var a, b byte // the two most recent bytes, not yet committed as text
	seen := 0
	for {
		c, err := s.br.ReadByte()
		if err != nil {
			return io.ErrUnexpectedEOF
		}
		if seen >= 2 && a == ']' && b == ']' && c == '>' {
			return nil
		}
		if seen >= 2 && s.capture {
			// a can no longer be part of the terminator; commit it.
			s.text = append(s.text, a)
		}
		a, b = b, c
		seen++
	}
}

// skipUntil discards input through term ("?>" or "-->"), using the same
// exact lookbehind matching as cdata so runs of the terminator's first
// byte ("---->") cannot slip past.
func (s *msScanner) skipUntil(term string) error {
	var a, b byte
	seen := 0
	for {
		c, err := s.br.ReadByte()
		if err != nil {
			return io.ErrUnexpectedEOF
		}
		seen++
		switch len(term) {
		case 2:
			if seen >= 2 && b == term[0] && c == term[1] {
				return nil
			}
		default: // 3
			if seen >= 3 && a == term[0] && b == term[1] && c == term[2] {
				return nil
			}
		}
		a, b = b, c
	}
}

// appendEntity decodes one character reference ("&amp;", "&#xA;", ...) into
// the text buffer, with the leading '&' already consumed.
func (s *msScanner) appendEntity() error {
	var ref [12]byte
	n := 0
	for {
		c, err := s.br.ReadByte()
		if err != nil {
			return io.ErrUnexpectedEOF
		}
		if c == ';' {
			break
		}
		if n == len(ref) {
			return fmt.Errorf("webdav: character reference too long: &%s", ref[:n])
		}
		ref[n] = c
		n++
	}
	ent := string(ref[:n])
	switch ent {
	case "amp":
		s.text = append(s.text, '&')
	case "lt":
		s.text = append(s.text, '<')
	case "gt":
		s.text = append(s.text, '>')
	case "quot":
		s.text = append(s.text, '"')
	case "apos":
		s.text = append(s.text, '\'')
	default:
		if n < 2 || ref[0] != '#' {
			return fmt.Errorf("webdav: unknown entity &%s;", ent)
		}
		num := ent[1:]
		base := 10
		if num[0] == 'x' || num[0] == 'X' {
			num, base = num[1:], 16
		}
		v, err := strconv.ParseUint(num, base, 21)
		if err != nil {
			return fmt.Errorf("webdav: bad character reference &%s;: %v", ent, err)
		}
		s.text = utf8.AppendRune(s.text, rune(v))
	}
	return nil
}

// DecodeMultistatus parses a multistatus body into entries, in document
// order, with encoding/xml. Clients decode with DecodeMultistatusStream;
// this is the reference its tests compare against.
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
