package webdav

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"
)

// Element local names the multistatus schema cares about, as byte slices
// so the decoder compares without allocating.
var (
	elMultistatus  = []byte("multistatus")
	elResponse     = []byte("response")
	elHref         = []byte("href")
	elPropstat     = []byte("propstat")
	elProp         = []byte("prop")
	elLength       = []byte("getcontentlength")
	elModified     = []byte("getlastmodified")
	elResourceType = []byte("resourcetype")
	elCollection   = []byte("collection")
)

// ScanMultistatus decodes a multistatus document straight off r and calls
// fn with each <response>'s entry, in document order, as its element
// closes; an error from fn stops the scan and is returned as is. The body
// is never materialized: a pooled scanner reads it in windows and scans
// them as slices (the tag scanner is hand-rolled, like the HTTP codec in
// internal/wire, because encoding/xml allocates a token and a name per
// tag). Scanning stops when the document element closes, as xml.Unmarshal
// does; a body that ends before then is io.ErrUnexpectedEOF, so a dropped
// connection never reads as a complete, shorter listing.
//
// Properties are read where RFC 4918 places them (multistatus / response /
// href and response / propstat / prop / {getcontentlength,
// getlastmodified, resourcetype/collection}) with DecodeMultistatus's
// precedence, and namespace prefixes are ignored: only local names matter,
// which accepts both this package's default-namespace encoding and the
// "<D:multistatus xmlns:D=...>" style real WebDAV servers emit.
func ScanMultistatus(r io.Reader, fn func(Entry) error) error {
	s := scanners.Get().(*msScanner)
	s.reset(r)
	d := msDecoder{s: s, fn: fn}
	err := d.run()
	s.reset(nil)
	scanners.Put(s)
	if err != nil && !d.stopped {
		return fmt.Errorf("webdav: %w", err)
	}
	return err
}

// Captured property fields.
const (
	fNone = iota
	fHref
	fLength
	fModified
)

// msDecoder maps the scanner's tags onto entries. path counts how many
// elements of the chain multistatus / response / propstat / prop /
// resourcetype are open, each directly inside the last; anything else is
// skipped with its whole subtree.
type msDecoder struct {
	s        *msScanner
	fn       func(Entry) error
	stopped  bool // fn returned an error
	cur      Entry
	ps       msProps
	path     int
	field    int // leaf property being captured
	capDepth int // depth of the element being captured
}

// msProps collects one propstat's properties; they apply to the entry when
// the propstat closes, in DecodeMultistatus's precedence.
type msProps struct {
	size    int64
	sized   bool
	dir     bool
	modTime time.Time
	modOK   bool // the last getlastmodified was non-empty and parsed
}

func (d *msDecoder) run() error {
	s := d.s
	for {
		kind, err := s.next()
		if err == io.EOF {
			if d.path == 0 {
				return fmt.Errorf("%w: no multistatus element", io.ErrUnexpectedEOF)
			}
			return fmt.Errorf("%w: %d elements unclosed", io.ErrUnexpectedEOF, len(s.open))
		}
		if err != nil {
			return err
		}
		if kind == msStart {
			if err := d.start(); err != nil {
				return err
			}
		}
		if kind == msEnd || s.selfClose {
			if err := d.end(); err != nil {
				return err
			}
			if d.path == 0 {
				return nil // the document element closed
			}
		}
		s.capture = d.field != fNone && len(s.open) == d.capDepth
	}
}

// start handles a start tag: descend the chain or begin a capture.
func (d *msDecoder) start() error {
	s := d.s
	s.push()
	depth := len(s.open)
	if depth != d.path+1 {
		return nil
	}
	name := s.local
	switch d.path {
	case 0:
		// The document element must be a multistatus, as xml.Unmarshal
		// into msDoc enforces.
		if !bytes.Equal(name, elMultistatus) {
			return fmt.Errorf("document element is <%s>, want <multistatus>", s.name)
		}
		d.path = 1
	case 1:
		if bytes.Equal(name, elResponse) {
			d.path, d.cur = 2, Entry{}
		}
	case 2:
		switch {
		case bytes.Equal(name, elHref):
			d.capture(fHref, depth)
		case bytes.Equal(name, elPropstat):
			d.path, d.ps = 3, msProps{}
		}
	case 3:
		if bytes.Equal(name, elProp) {
			d.path = 4
		}
	case 4:
		switch {
		case bytes.Equal(name, elLength):
			d.capture(fLength, depth)
		case bytes.Equal(name, elModified):
			d.capture(fModified, depth)
		case bytes.Equal(name, elResourceType):
			d.path = 5
		}
	case 5:
		if bytes.Equal(name, elCollection) {
			d.ps.dir = true
		}
	}
	return nil
}

func (d *msDecoder) capture(field, depth int) {
	d.field, d.capDepth = field, depth
	d.s.text = d.s.text[:0]
}

// end handles an end tag (or a self-closing tag's implicit one): finish a
// capture, or close a chain element.
func (d *msDecoder) end() error {
	s := d.s
	depth := len(s.open)
	if !s.pop() {
		return fmt.Errorf("unbalanced </%s>", s.name)
	}
	if d.field != fNone && depth == d.capDepth {
		if err := d.finish(); err != nil {
			return err
		}
	}
	if depth != d.path {
		return nil
	}
	switch d.path {
	case 2:
		if err := d.fn(d.cur); err != nil {
			d.stopped = true
			return err
		}
	case 3:
		if d.ps.sized {
			d.cur.Size = d.ps.size
		}
		if d.ps.dir {
			d.cur.Dir = true
		}
		if d.ps.modOK {
			d.cur.ModTime = d.ps.modTime
		}
	}
	d.path--
	return nil
}

// finish stores the captured text into its field; the last occurrence of a
// property wins, as with xml.Unmarshal.
func (d *msDecoder) finish() error {
	text := d.s.text
	switch d.field {
	case fHref:
		d.cur.Href = string(text)
	case fLength:
		// encoding/xml reads an empty integer element as 0.
		var n int64
		if len(text) > 0 {
			var err error
			if n, err = strconv.ParseInt(string(bytes.TrimSpace(text)), 10, 64); err != nil {
				return fmt.Errorf("getcontentlength %q: %w", text, err)
			}
		}
		d.ps.size, d.ps.sized = n, true
	case fModified:
		// Unparsable times are dropped, matching DecodeMultistatus.
		d.ps.modTime, d.ps.modOK = parseModTime(text)
	}
	d.field = fNone
	return nil
}

// parseModTime returns what time.Parse(TimeLayout, text) returns, and
// whether it succeeded. The empty value (a zero mtime) and the canonical
// form every encoder here writes — fixed width, "UTC" — are decoded in
// place; anything else goes through time.Parse.
func parseModTime(b []byte) (time.Time, bool) {
	if t, ok := parseRFC1123UTC(b); ok || len(b) == 0 {
		return t, ok
	}
	t, err := time.Parse(TimeLayout, string(b))
	return t, err == nil
}

// parseRFC1123UTC decodes exactly "Mon, 02 Jan 2006 15:04:05 UTC" with
// canonical day and month names and in-range fields, returning the value
// time.Parse gives it; ok is false for anything else.
func parseRFC1123UTC(b []byte) (t time.Time, ok bool) {
	if len(b) != 29 || b[3] != ',' || b[4] != ' ' || b[7] != ' ' || b[11] != ' ' ||
		b[16] != ' ' || b[19] != ':' || b[22] != ':' || string(b[25:]) != " UTC" {
		return t, false
	}
	month := name3(b[8:11], "JanFebMarAprMayJunJulAugSepOctNovDec")
	day, year := num(b[5:7]), num(b[12:16])
	hour, minute, sec := num(b[17:19]), num(b[20:22]), num(b[23:25])
	if name3(b[:3], "SunMonTueWedThuFriSat") == 0 || month == 0 || day < 1 || year < 0 ||
		uint(hour) > 23 || uint(minute) > 59 || uint(sec) > 59 {
		return t, false
	}
	t = time.Date(year, time.Month(month), day, hour, minute, sec, 0, time.UTC)
	// Date normalizes an out-of-range day into the next month, where
	// time.Parse rejects it.
	return t, t.Day() == day
}

// name3 returns the 1-based position of b among the three-letter names
// listed back to back in names, or 0.
func name3(b []byte, names string) int {
	for i := 0; i < len(names); i += 3 {
		if string(b) == names[i:i+3] {
			return i/3 + 1
		}
	}
	return 0
}

// num parses an all-decimal field, or returns -1.
func num(b []byte) int {
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// Scanner token kinds.
const (
	msStart = iota
	msEnd
)

// msWindow is the size of the scanner's read window: the body is read
// msWindow bytes at a time and each window is scanned as a slice.
const msWindow = 4 << 10

// Terminators the scanner searches for.
var (
	piEnd      = []byte("?>")
	commentEnd = []byte("-->")
	cdataEnd   = []byte("]]>")
)

// scanners pools msScanners with their read windows and scratch buffers.
var scanners = sync.Pool{New: func() any { return &msScanner{buf: make([]byte, msWindow)} }}

// msScanner is a minimal XML tag scanner for multistatus documents: it
// yields start and end tags with their local names, checks that every end
// tag closes the innermost open element, and accumulates entity-decoded
// character data while capture is on. Names and text are reused across
// tokens, so they are only valid until the next call.
type msScanner struct {
	r        io.Reader
	buf      []byte // the read window; buf[pos:end] is unread
	pos, end int
	rerr     error // read error, returned once the window drains

	// name is the qualified name of the last tag, local its local part.
	name, local []byte
	// selfClose reports that the last start tag was "<name .../>".
	selfClose bool

	// names holds the open elements' local names back to back; open[i]
	// is where the i-th one starts.
	names []byte
	open  []int

	capture bool
	text    []byte
	// cr reports that the last captured raw byte was a '\r', so a '\n'
	// right after it belongs to the same line break.
	cr bool
}

func (s *msScanner) reset(r io.Reader) {
	s.r, s.rerr = r, nil
	s.pos, s.end = 0, 0
	s.name, s.local, s.names, s.open = s.name[:0], nil, s.names[:0], s.open[:0]
	s.capture, s.cr, s.text = false, false, s.text[:0]
}

// fill moves the unread bytes to the front of the window and reads more
// after them. It returns the read error (io.EOF at the end of the body)
// only once nothing more arrives.
func (s *msScanner) fill() error {
	if s.rerr != nil {
		return s.rerr
	}
	s.end = copy(s.buf, s.buf[s.pos:s.end])
	s.pos = 0
	for range 100 {
		n, err := s.r.Read(s.buf[s.end:])
		s.end += n
		if err != nil {
			s.rerr = err
		}
		if n > 0 {
			return nil
		}
		if err != nil {
			return err
		}
	}
	s.rerr = io.ErrNoProgress
	return s.rerr
}

// more is fill inside a token, where the end of the body is unexpected.
func (s *msScanner) more() error {
	err := s.fill()
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// byte consumes one byte inside a token.
func (s *msScanner) byte() (byte, error) {
	if s.pos == s.end {
		if err := s.more(); err != nil {
			return 0, err
		}
	}
	s.pos++
	return s.buf[s.pos-1], nil
}

// next advances to the next start or end tag. Character data up to it is
// captured while capture is on. It returns io.EOF cleanly at the end of the
// body between tokens, io.ErrUnexpectedEOF when the body ends inside one.
func (s *msScanner) next() (int, error) {
	for {
		if s.pos == s.end {
			if err := s.fill(); err != nil {
				return 0, err
			}
		}
		win := s.buf[s.pos:s.end]
		lt := bytes.IndexByte(win, '<')
		if lt < 0 {
			lt = len(win)
		}
		if s.capture {
			if amp := bytes.IndexByte(win[:lt], '&'); amp >= 0 {
				s.appendRaw(win[:amp])
				s.pos += amp + 1
				if err := s.entity(); err != nil {
					return 0, err
				}
				continue
			}
			s.appendRaw(win[:lt])
		}
		s.pos += lt
		if s.pos == s.end {
			continue
		}
		s.pos++ // '<'
		s.cr = false
		c, err := s.byte()
		if err != nil {
			return 0, err
		}
		switch c {
		case '?':
			err = s.skipTo(piEnd)
		case '!':
			err = s.markup()
		case '/':
			return msEnd, s.endTag()
		default:
			s.pos--
			return msStart, s.startTag()
		}
		if err != nil {
			return 0, err
		}
	}
}

// readName scans a tag name into s.name and its local part into s.local,
// split at the colon the way encoding/xml splits it.
func (s *msScanner) readName() error {
	s.name = s.name[:0]
	for {
		win := s.buf[s.pos:s.end]
		n := 0
		for n < len(win) && !nameEnd[win[n]] {
			n++
		}
		s.name = append(s.name, win[:n]...)
		s.pos += n
		if n < len(win) {
			break
		}
		if err := s.more(); err != nil {
			return err
		}
	}
	if len(s.name) == 0 {
		return fmt.Errorf("empty element name")
	}
	s.local = s.name
	if i := bytes.IndexByte(s.name, ':'); i > 0 && i < len(s.name)-1 {
		s.local = s.name[i+1:]
	}
	return nil
}

// nameEnd marks the bytes that end a tag name.
var nameEnd = [256]bool{' ': true, '\t': true, '\r': true, '\n': true, '/': true, '>': true}

// startTag scans "name attrs...>" or "name attrs.../>" after the '<'.
// Attributes are skipped, respecting quoted values that may contain '>'.
func (s *msScanner) startTag() error {
	if err := s.readName(); err != nil {
		return err
	}
	var quote byte
	s.selfClose = false
	for {
		for i, c := range s.buf[s.pos:s.end] {
			if quote != 0 {
				if c == quote {
					quote = 0
				}
				continue
			}
			switch c {
			case '"', '\'':
				quote = c
				s.selfClose = false
			case '/':
				s.selfClose = true
			case '>':
				s.pos += i + 1
				return nil
			default:
				s.selfClose = false
			}
		}
		s.pos = s.end
		if err := s.more(); err != nil {
			return err
		}
	}
}

// endTag scans "name>" after the "</": the name, optional whitespace, '>'.
func (s *msScanner) endTag() error {
	if err := s.readName(); err != nil {
		return err
	}
	for {
		c, err := s.byte()
		if err != nil {
			return err
		}
		switch c {
		case '>':
			return nil
		case ' ', '\t', '\r', '\n':
		default:
			return fmt.Errorf("malformed end tag </%s", s.name)
		}
	}
}

// push records the start tag's local name as the innermost open element.
func (s *msScanner) push() {
	s.open = append(s.open, len(s.names))
	s.names = append(s.names, s.local...)
}

// pop closes the innermost open element, reporting whether the last tag's
// local name matches it.
func (s *msScanner) pop() bool {
	n := len(s.open)
	if n == 0 {
		return false
	}
	at := s.open[n-1]
	ok := bytes.Equal(s.names[at:], s.local)
	s.names, s.open = s.names[:at], s.open[:n-1]
	return ok
}

// markup handles "<!" constructs: comments (skipped), CDATA sections
// (captured as text) and declarations such as <!DOCTYPE ...> (skipped).
func (s *msScanner) markup() error {
	c, err := s.byte()
	if err != nil {
		return err
	}
	switch c {
	case '-':
		if c, err = s.byte(); err != nil {
			return err
		}
		if c != '-' {
			return fmt.Errorf("invalid sequence <!- not part of <!--")
		}
		return s.skipTo(commentEnd)
	case '[':
		for i := 0; i < len("CDATA["); i++ {
			if c, err = s.byte(); err != nil {
				return err
			}
			if c != "CDATA["[i] {
				return fmt.Errorf("invalid <![ sequence")
			}
		}
		return s.cdata()
	}
	return s.directive()
}

// directive skips a declaration as encoding/xml does: to the '>' that
// balances it, where quoted strings and comments do not count and other
// '<'s nest (a DOCTYPE's internal subset).
func (s *msScanner) directive() error {
	var quote byte
	depth := 0
	for {
		c, err := s.byte()
		if err != nil {
			return err
		}
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '>':
			if depth == 0 {
				return nil
			}
			depth--
		case c == '<':
			comment := true
			for i := 0; i < len("!--") && comment; i++ {
				if c, err = s.byte(); err != nil {
					return err
				}
				if comment = c == "!--"[i]; !comment {
					s.pos-- // not a comment: look at this byte again
				}
			}
			if !comment {
				depth++
			} else if err := s.skipTo(commentEnd); err != nil {
				return err
			}
		}
	}
}

// cdata captures a CDATA section's content (when capturing) up to "]]>".
func (s *msScanner) cdata() error {
	for {
		win := s.buf[s.pos:s.end]
		if i := bytes.Index(win, cdataEnd); i >= 0 {
			if s.capture {
				s.appendRaw(win[:i])
			}
			s.pos += i + len(cdataEnd)
			s.cr = false
			return nil
		}
		// Keep what could be the start of a split terminator.
		if n := len(win) - (len(cdataEnd) - 1); n > 0 {
			if s.capture {
				s.appendRaw(win[:n])
			}
			s.pos += n
		}
		if err := s.more(); err != nil {
			return err
		}
	}
}

// skipTo discards input through term.
func (s *msScanner) skipTo(term []byte) error {
	for {
		if i := bytes.Index(s.buf[s.pos:s.end], term); i >= 0 {
			s.pos += i + len(term)
			return nil
		}
		if keep := len(term) - 1; s.end-s.pos > keep {
			s.pos = s.end - keep
		}
		if err := s.more(); err != nil {
			return err
		}
	}
}

// appendRaw captures literal character data, rewriting "\r\n" and a lone
// '\r' to '\n' as XML (and encoding/xml) require.
func (s *msScanner) appendRaw(b []byte) {
	if len(b) == 0 {
		return
	}
	if s.cr && b[0] == '\n' {
		b = b[1:]
	}
	s.cr = false
	for {
		i := bytes.IndexByte(b, '\r')
		if i < 0 {
			s.text = append(s.text, b...)
			return
		}
		s.text = append(append(s.text, b[:i]...), '\n')
		if b = b[i+1:]; len(b) == 0 {
			s.cr = true
			return
		}
		if b[0] == '\n' {
			b = b[1:]
		}
	}
}

// entity decodes one reference ("&amp;", "&#xA;", ...) into the text, with
// the '&' already consumed. Character references must name an XML Char.
func (s *msScanner) entity() error {
	s.cr = false
	c, err := s.byte()
	if err != nil {
		return err
	}
	if c != '#' {
		var ref [4]byte
		n := 0
		for ; c != ';'; n++ {
			if n == len(ref) {
				return fmt.Errorf("unknown entity &%s", ref[:n])
			}
			ref[n] = c
			if c, err = s.byte(); err != nil {
				return err
			}
		}
		switch string(ref[:n]) {
		case "amp":
			c = '&'
		case "lt":
			c = '<'
		case "gt":
			c = '>'
		case "quot":
			c = '"'
		case "apos":
			c = '\''
		default:
			return fmt.Errorf("unknown entity &%s;", ref[:n])
		}
		s.text = append(s.text, c)
		return nil
	}
	if c, err = s.byte(); err != nil {
		return err
	}
	base := uint64(10)
	if c == 'x' {
		base = 16
		if c, err = s.byte(); err != nil {
			return err
		}
	}
	var v uint64
	n := 0
	for ; ; n++ {
		d := uint64(unhex(c))
		if d >= base {
			break
		}
		if v <= unicode.MaxRune { // past it, stop growing: the value is bad already
			v = v*base + d
		}
		if c, err = s.byte(); err != nil {
			return err
		}
	}
	if c != ';' || n == 0 || v > unicode.MaxRune || !isXMLChar(rune(v)) {
		return fmt.Errorf("bad character reference (value %#x, %d digits, then %q)", v, n, c)
	}
	s.text = utf8.AppendRune(s.text, rune(v))
	return nil
}

// unhex returns the value of a hex digit, or 16 for anything else.
func unhex(c byte) byte {
	switch {
	case '0' <= c && c <= '9':
		return c - '0'
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10
	}
	return 16
}
