package webdav

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"testing/iotest"
	"time"
	"unicode/utf8"
)

// msHead opens a document the way the gateway does.
const msHead = `<?xml version="1.0" encoding="UTF-8"?>` + "\n" + `<multistatus xmlns="DAV:">`

// straddle builds a one-response document whose href holds pre + token,
// padded so that token starts k bytes before the end of the scanner's first
// read window.
func straddle(open, token, close string, k int) []byte {
	head := msHead + "<response><href>" + open
	pad := msWindow - k - len(head)
	return []byte(head + strings.Repeat("x", pad) + token + close + "</href></response></multistatus>")
}

// scanTable is the documents both decoders are compared on, and the
// fuzzer's seed corpus: well-formed shapes, the rows the scanner must
// reject, and tokens split across the scanner's read window.
func scanTable() [][]byte {
	now := time.Date(2014, 6, 30, 12, 0, 0, 0, time.UTC)
	shapes := []Entry{
		{Href: "/store", Dir: true, ModTime: now},
		{Href: `/store/a&b <c> "d" 'e'` + "\t\r\n", Size: 700 << 20, ModTime: now},
		{Href: "/store/empty"},
	}
	enc, _ := EncodeMultistatus(shapes)
	indented, _ := EncodeMultistatusIndented(shapes)
	docs := []string{
		string(enc),
		string(indented),
		`<?xml version="1.0"?>
<D:multistatus xmlns:D="DAV:">
 <D:response><D:href>/data/run1</D:href>
  <D:propstat><D:prop><D:resourcetype><D:collection/></D:resourcetype></D:prop>
   <D:status>HTTP/1.1 200 OK</D:status></D:propstat></D:response>
 <D:response><D:href>/data/run1/a.rnt</D:href>
  <D:propstat><D:prop><D:getcontentlength>42</D:getcontentlength></D:prop></D:propstat></D:response>
</D:multistatus>`,
		msHead + `<!-- <tags> & ampersands --><response><href><![CDATA[/raw&]]]]><![CDATA[>]]></href></response></multistatus>`,
		msHead + `<!-- dashes ----><?pi ??><response><href><![CDATA[/data/y]]]]></href></response></multistatus>`,
		// Line breaks are normalized in text, not in references.
		msHead + "<response><href>/a\r\nb\rc\r<!---->\nd&#xD;\n</href></response></multistatus>",
		// An empty getcontentlength is 0; several propstats merge in order.
		msHead + `<response><href>/p</href><propstat><prop><getcontentlength>7</getcontentlength>
<getlastmodified>Mon, 30 Jun 2014 12:00:00 UTC</getlastmodified></prop></propstat>
<propstat><prop><getcontentlength></getcontentlength><getlastmodified>bogus</getlastmodified>
<resourcetype><collection/></resourcetype></prop><prop><getlastmodified>Tue, 01 Jul 2014 00:00:00 GMT</getlastmodified></prop></propstat></response></multistatus>`,
		// The known case: properties nested deeper than RFC 4918 puts them
		// are not properties, and text in child elements is not the href's.
		msHead + `<response><x><href>/deep</href></x><href>/a<b>ignored</b>b</href><propstat><x><prop><getcontentlength>9</getcontentlength></prop></x>
<prop><x><resourcetype><collection/></resourcetype></x></prop></propstat></response><x><response><href>/nested</href></response></x></multistatus>`,
		// Only the document element is read, as xml.Unmarshal reads it.
		msHead + `<response><href>/a</href></response></multistatus><trailing`,
		// Declarations are skipped by their balanced '>'.
		`<!DOCTYPE multistatus [<!ENTITY e "<response>"> <!-- ' " > -->]>` + msHead[len(`<?xml version="1.0" encoding="UTF-8"?>`)+1:] +
			`<response><href a='>' b=">">&#65;&#x42;&#x10FFFF;&lt;&gt;&amp;&apos;&quot;</href></response></multistatus>`,
		// Rejected: the end tag rows of the satellite bug, and references
		// outside XML's Char production.
		msHead + `<response><href>/a</hr ef></response></multistatus>`,
		msHead + `<response><href>/a</href></response></multistatus trailing>`,
		msHead + `<response><href>/a&#0;</href></response></multistatus>`,
		msHead + `<response><href>/a&#x110000;</href></response></multistatus>`,
		msHead + `<response><href>/a</x></response></multistatus>`,
		msHead + `<response><href>/a&bogus;</href></response></multistatus>`,
		msHead + `<response><href>/a</href><propstat><prop><getcontentlength> </getcontentlength></prop></propstat></response></multistatus>`,
		msHead + `<response><href>/a</href></response>`,
		"<<<<", "", "proxy error page", `<html><body></html>`, `</multistatus>`,
	}
	var out [][]byte
	for _, d := range docs {
		out = append(out, []byte(d))
	}
	// Many-entry documents for the skeleton fast path, in the gateway's
	// compact layout and indented: two skeletons, entries that break a
	// learned skeleton mid-way or carry text it cannot take as is, an error
	// after good entries, an entry larger than the window, and entries cut
	// by the window's end while matched or while learned from. Then a
	// prefixed style whose uncaptured text differs per entry.
	oddRefs := func(s string) string {
		if strings.HasSuffix(s, "5.dat") || strings.HasSuffix(s, "8.dat") {
			return s + "&"
		}
		return s
	}
	for _, listing := range []func(n, dirEvery int, esc func(string) string) []byte{gatewayListing, indentedListing} {
		files := listing(12, 0, plain)
		out = append(out,
			listing(20, 3, plain),
			replaceNth(files, "<prop>", `<prop><getetag>"x"</getetag>`, 4),
			replaceNth(files, "</getlastmodified>", "</getlastmodified><!-- c -->", 6),
			replaceNth(files, "<href>", "<href><![CDATA[/c]]>", 8),
			replaceNth(listing(12, 0, oddRefs), "f003-", "f003\r\n-", 1),
			replaceNth(files, "<getcontentlength>", "<getcontentlength>x", 7),
			replaceNth(files, "f004-", "f004-"+strings.Repeat("y", msWindow), 1),
		)
		for k := 1; k <= 4; k++ {
			for _, at := range []string{"<response>", "</href>", "</response>"} {
				out = append(out,
					padListing(listing(30, 0, plain), at, 14, k),
					padListing(listing(3, 0, plain), at, 1, k))
			}
		}
	}
	out = append(out,
		apacheListing(12),
		[]byte(msHead+strings.Repeat("<response/>\n <response><href/></response>", 400)+"</multistatus>"),
	)
	// A tag name, an entity and the CDATA and comment terminators split
	// across the end of the first read window, at every offset.
	for k := 1; k <= 4; k++ {
		out = append(out,
			straddle("", "</href><href>", "", k),
			straddle("", "&amp;", "", k),
			straddle("", "&#x10FFFF;", "", k),
			straddle("<![CDATA[", "]]>", "", k),
			straddle("<!--", "-->", "", k),
			straddle("", "\r\n", "", k),
		)
	}
	return out
}

// nthIndex returns where the n-th (from 1) sub in doc begins.
func nthIndex(doc []byte, sub string, n int) int {
	at := -len(sub)
	for ; n > 0; n-- {
		at += len(sub) + bytes.Index(doc[at+len(sub):], []byte(sub))
	}
	return at
}

// replaceNth replaces the n-th (from 1) old in doc with new.
func replaceNth(doc []byte, old, new string, n int) []byte {
	at := nthIndex(doc, old, n)
	return []byte(string(doc[:at]) + new + string(doc[at+len(old):]))
}

// padListing pads a listing with blanks ahead of its first <response> so
// that the n-th (from 1) at begins k bytes before the end of the scanner's
// first read window.
func padListing(doc []byte, at string, n, k int) []byte {
	first := bytes.Index(doc, []byte("<response>"))
	pad := strings.Repeat(" ", msWindow-k-nthIndex(doc, at, n))
	return []byte(string(doc[:first]) + pad + string(doc[first:]))
}

// scanAll runs the scanner over r, with or without the skeleton fast
// path, collecting the entries.
func scanAll(r io.Reader, fast bool) ([]Entry, error) {
	var got []Entry
	_, err := scan(r, func(e Entry) error { got = append(got, e); return nil }, fast)
	return got, err
}

var errStop = errors.New("stop")

// sameEntries compares entries field by field; times are compared by
// instant and zone, since time.Parse makes a new Location per call for
// zones it does not know.
func sameEntries(a, b []Entry) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d entries vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Href != y.Href || x.Size != y.Size || x.Dir != y.Dir ||
			!x.ModTime.Equal(y.ModTime) || x.ModTime.String() != y.ModTime.String() {
			return fmt.Errorf("entry %d: %+v vs %+v", i, x, y)
		}
	}
	return nil
}

// surrogateRef reports whether doc holds a character reference to a UTF-16
// surrogate: XML's Char excludes them and the scanner rejects them, while
// encoding/xml quietly decodes them to U+FFFD.
func surrogateRef(doc []byte) bool {
	for _, ref := range bytes.Split(doc, []byte("&#"))[1:] {
		end := bytes.IndexByte(ref, ';')
		if end < 0 {
			continue
		}
		var v uint64
		if _, err := fmt.Sscanf(string(ref[:end]), "x%x", &v); err != nil {
			if _, err := fmt.Sscanf(string(ref[:end]), "%d", &v); err != nil {
				continue
			}
		}
		if v >= 0xD800 && v <= 0xDFFF {
			return true
		}
	}
	return false
}

// checkScan is the fuzz property: the scanner never panics, gives the same
// answer with and without its skeleton fast path and however the body is
// split into reads, stops where fn stops it, and agrees with the
// encoding/xml oracle on every document the oracle accepts. It reports
// whether the oracle took part.
func checkScan(t *testing.T, doc []byte, split int) (compared bool) {
	t.Helper()
	whole, werr := scanAll(bytes.NewReader(doc), true)
	if split < 1 {
		split = 1
	}
	stop := split % (len(whole) + 1)
	for _, fast := range []bool{true, false} {
		for name, r := range map[string]io.Reader{
			"whole":    bytes.NewReader(doc),
			"one byte": iotest.OneByteReader(bytes.NewReader(doc)),
			"split":    &chunkReader{doc, split},
		} {
			got, err := scanAll(r, fast)
			if (err == nil) != (werr == nil) {
				t.Fatalf("%s reads, fast path %v: err %v; whole, fast path: err %v", name, fast, err, werr)
			}
			if err := sameEntries(got, whole); err != nil {
				t.Fatalf("%s reads, fast path %v, differ from whole with it: %v", name, fast, err)
			}
		}
		var got []Entry
		_, err := scan(&chunkReader{doc, split}, func(e Entry) error {
			if len(got) == stop {
				return errStop
			}
			got = append(got, e)
			return nil
		}, fast)
		if stop < len(whole) && err != errStop || stop == len(whole) && (err == nil) != (werr == nil) {
			t.Fatalf("fn stopping after %d of %d entries, fast path %v: err %v", stop, len(whole), fast, err)
		}
		if err := sameEntries(got, whole[:stop]); err != nil {
			t.Fatalf("fn stopping after %d entries, fast path %v: %v", stop, fast, err)
		}
	}
	oracle, oerr := DecodeMultistatus(doc)
	if oerr != nil || surrogateRef(doc) {
		return false
	}
	if werr != nil {
		t.Fatalf("oracle accepts, scanner: %v", werr)
	}
	if err := sameEntries(whole, oracle); err != nil {
		t.Fatalf("scanner vs oracle: %v", err)
	}
	return true
}

// chunkReader returns at most n bytes per Read.
type chunkReader struct {
	b []byte
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	k := copy(p[:min(len(p), c.n)], c.b)
	c.b = c.b[k:]
	return k, nil
}

func TestScanMatchesOracle(t *testing.T) {
	compared := 0
	for _, doc := range scanTable() {
		if checkScan(t, doc, 7) {
			compared++
		}
		for _, split := range []int{msWindow - 1, msWindow + 1} {
			checkScan(t, doc, split)
		}
	}
	// Everything but the rejected rows, the legacy "---->" comment and the
	// listings with a bad getcontentlength, one per layout.
	if want := len(scanTable()) - 16; compared != want {
		t.Fatalf("the oracle accepted %d documents of the table, want %d", compared, want)
	}
}

func FuzzMultistatusScanner(f *testing.F) {
	for _, doc := range scanTable() {
		for _, split := range []int{0, 1, -1, math.MaxInt, msWindow - 1, msWindow, msWindow + 1} {
			f.Add(doc, split)
		}
	}
	f.Fuzz(func(t *testing.T, doc []byte, split int) { checkScan(t, doc, split) })
}

// xmlText is what an href becomes once written to a document: bytes that
// are not UTF-8 and runes outside XML's Char production turn into U+FFFD.
func xmlText(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); {
		r, w := utf8.DecodeRuneInString(s[i:])
		if !isXMLChar(r) || r == utf8.RuneError && w == 1 {
			r = utf8.RuneError
		}
		b.WriteRune(r)
		i += w
	}
	return b.String()
}

// checkWriter is the writer's fuzz property: byte-equal to
// EncodeMultistatus (xml.Marshal's compact document), and read back by
// both decoders as written.
func checkWriter(t *testing.T, e Entry) {
	t.Helper()
	want, err := EncodeMultistatus([]Entry{e, e})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	mw := NewMultistatusWriter(&buf)
	if err := errors.Join(mw.WriteEntry(e), mw.WriteEntry(e), mw.Close()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("writer output differs from EncodeMultistatus\nwriter:\n%s\nencode:\n%s", buf.Bytes(), want)
	}
	back := Entry{Href: xmlText(e.Href), Dir: e.Dir}
	if !e.Dir {
		back.Size = e.Size
	}
	if mt := e.ModTime.UTC(); !mt.IsZero() && mt.Year() >= 0 && mt.Year() <= 9999 {
		back.ModTime = mt
	}
	oracle, err := DecodeMultistatus(want)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	scanned, err := DecodeMultistatusStream(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("scanner: %v", err)
	}
	for name, got := range map[string][]Entry{"oracle": oracle, "scanner": scanned} {
		if err := sameEntries(got, []Entry{back, back}); err != nil {
			t.Fatalf("%s round trip: %v", name, err)
		}
	}
}

func FuzzMultistatusWriter(f *testing.F) {
	for _, href := range []string{
		"/store/f.rnt", `/a&b<c>"d"'e'`, "/tab\tnl\ncr\r", "/bad\xff\xfeutf8",
		"/nonchar\uFFFE\uFFFF", "/ctl\x00\x1f\x7f", "/cdata]]>", "/fffd\uFFFD", "",
	} {
		for _, size := range []int64{0, -1, math.MaxInt64} {
			f.Add(href, size, false, int64(1404129600))
			f.Add(href, size, true, int64(0))
		}
	}
	f.Add("/", int64(1), false, int64(-1))
	f.Add("/", int64(1), false, int64(math.MaxInt64))
	f.Add("/", int64(1), false, int64(math.MinInt64))
	f.Add("/", int64(1), false, int64(-62135596800)) // the zero time
	f.Fuzz(func(t *testing.T, href string, size int64, dir bool, unix int64) {
		checkWriter(t, Entry{Href: href, Size: size, Dir: dir, ModTime: time.Unix(unix, 0)})
	})
}

// FuzzAppendRFC1123 holds the fixed-width appender to time.AppendFormat
// for both layouts it stands in for, in any zone and with any nanoseconds,
// including the years it hands back to AppendFormat; within years 0–9999
// ParseRFC1123 reads every text back to its second, in UTC.
func FuzzAppendRFC1123(f *testing.F) {
	for _, t := range []time.Time{
		{}, time.Unix(0, 0),
		time.Date(2016, 2, 29, 23, 59, 59, 999999999, time.UTC),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 12, 31, 23, 59, 59, 0, time.UTC),
	} {
		f.Add(t.Unix(), int64(t.Nanosecond()), int32(0))
	}
	f.Add(int64(1404129600), int64(0), int32(-5*3600))
	f.Add(int64(253402300799), int64(0), int32(3600)) // 9999-12-31 23:59:59 UTC, in 10000 locally
	f.Fuzz(func(t *testing.T, sec, nsec int64, offset int32) {
		tm := time.Unix(sec, nsec).In(time.FixedZone("X", int(offset)))
		for zone, layout := range map[string]string{"UTC": TimeLayout, "GMT": http.TimeFormat} {
			got := AppendRFC1123([]byte("<"), tm, zone)
			if want := tm.UTC().AppendFormat([]byte("<"), layout); !bytes.Equal(got, want) {
				t.Fatalf("%v with %s: appender %q, AppendFormat %q", tm, zone, got, want)
			}
			if y := tm.UTC().Year(); y < 0 || y > 9999 {
				continue
			}
			if back, ok := ParseRFC1123(string(got[1:]), zone); !ok || back.Unix() != tm.Unix() || back.Location() != time.UTC {
				t.Fatalf("%v with %s: %q parses back as %v, %v", tm, zone, got[1:], back, ok)
			}
		}
	})
}

// TestRFC1123FastPathIsTimeParse: wherever the in-place parser answers for
// zone "UTC", it answers exactly what time.Parse does, Location included.
// For zone "GMT" it answers the same instant as time.Parse with
// http.TimeFormat, in UTC rather than a fabricated "GMT" zone, and it
// refuses the same texts.
func TestRFC1123FastPathIsTimeParse(t *testing.T) {
	base := time.Date(1999, 12, 31, 23, 59, 59, 0, time.UTC)
	var inputs []string
	for i := 0; i < 2000; i++ {
		inputs = append(inputs, base.Add(time.Duration(i)*37*time.Hour+time.Duration(i)*61*time.Second).Format(TimeLayout))
	}
	inputs = append(inputs,
		"Mon, 29 Feb 2016 00:00:00 UTC", "Mon, 29 Feb 2015 00:00:00 UTC", "Mon, 31 Apr 2015 00:00:00 UTC",
		"Mon, 00 Jan 2015 00:00:00 UTC", "Mon, 01 Jan 2015 24:00:00 UTC", "Mon, 01 Jan 2015 00:60:00 UTC",
		"Mon, 01 Jan 2015 00:00:60 UTC", "mon, 01 jan 2015 00:00:00 UTC", "Mon, 01 Jan 0000 00:00:00 UTC",
		"Xyz, 01 Jan 2015 00:00:00 UTC", "Mon, 01 Jab 2015 00:00:00 UTC", "Mon, 01 Jan 2015 00:00:00 GMT",
		"Mon, 1 Jan 2015 00:00:00 UTC", "Mon, 01 Jan 2015 0:00:00 UTC", "Mon, 01 Jan 2015 00:00:00 UTCX",
		"Sun, 01 Jan 2015 00:00:00 UTC", "onM, 01 Jan 2015 00:00:00 UTC", "Mon, 01 anF 2015 00:00:00 UTC",
	)
	fast := 0
	for _, s := range inputs {
		got, ok := ParseRFC1123(s, "UTC")
		want, err := time.Parse(TimeLayout, s)
		if ok {
			fast++
			if err != nil || got != want {
				t.Fatalf("%q: fast path %v, time.Parse %v (%v)", s, got, want, err)
			}
		}
		if g, cut := strings.CutSuffix(s, " UTC"); cut {
			g += " GMT"
			gmt, gok := ParseRFC1123(g, "GMT")
			want, err := time.Parse(http.TimeFormat, g)
			if gok != ok || gok && (err != nil || !gmt.Equal(want) || gmt.Location() != time.UTC) {
				t.Fatalf("%q: GMT fast path %v %v, UTC %v, time.Parse %v (%v)", g, gmt, gok, ok, want, err)
			}
		}
		if got, ok := parseModTime([]byte(s)); ok != (err == nil) || ok && !got.Equal(want) {
			t.Fatalf("%q: parseModTime %v %v, time.Parse %v %v", s, got, ok, want, err)
		}
	}
	if fast < 2000 {
		t.Fatalf("fast path took only %d of the writer's own times", fast)
	}
}

// TestMultistatusAllocBudgets pins the per-entry cost of both directions:
// the writer allocates nothing per entry once its buffer has grown, and
// the scanner one string per entry (the href) plus a constant.
func TestMultistatusAllocBudgets(t *testing.T) {
	const n = 400
	now := time.Date(2014, 6, 30, 12, 0, 0, 0, time.UTC)
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Href: fmt.Sprintf("/tree/d00/c00/f%03d-%04x.dat", i, i*7919%65536), Size: int64(10 + i%90), ModTime: now}
	}
	mw := NewMultistatusWriter(io.Discard)
	mw.WriteEntry(entries[0])
	if a := testing.AllocsPerRun(100, func() { mw.WriteEntry(entries[1]) }); a != 0 {
		t.Errorf("WriteEntry: %.1f allocs per entry in steady state, want 0", a)
	}
	var buf bytes.Buffer
	mw = NewMultistatusWriter(&buf)
	for _, e := range entries {
		mw.WriteEntry(e)
	}
	mw.Close()
	body := buf.Bytes()
	count := 0
	scan := func() {
		count = 0
		if err := ScanMultistatus(bytes.NewReader(body), func(Entry) error { count++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	scan()
	if a := testing.AllocsPerRun(20, scan); a > n+8 || count != n {
		t.Errorf("ScanMultistatus: %.0f allocs for %d entries, budget %d", a, count, n+8)
	}
}
