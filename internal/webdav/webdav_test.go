package webdav

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestMultistatusRoundTrip(t *testing.T) {
	now := time.Now().UTC().Truncate(time.Second)
	in := []Entry{
		{Href: "/store", Dir: true, ModTime: now},
		{Href: "/store/f.rnt", Size: 700 << 20, ModTime: now},
		{Href: "/store/empty", Size: 0},
	}
	body, err := EncodeMultistatus(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMultistatus(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("entries = %d", len(got))
	}
	if !got[0].Dir || got[0].Href != "/store" {
		t.Fatalf("dir entry = %+v", got[0])
	}
	if got[1].Dir || got[1].Size != 700<<20 {
		t.Fatalf("file entry = %+v", got[1])
	}
	if !got[0].ModTime.Equal(now) {
		t.Fatalf("modtime = %v, want %v", got[0].ModTime, now)
	}
	if got[2].Size != 0 || got[2].Dir {
		t.Fatalf("empty entry = %+v", got[2])
	}
}

// TestStreamDecodeMatchesLegacy asserts the streaming decoder produces
// byte-identical entries to the materialize-then-Unmarshal path.
func TestStreamDecodeMatchesLegacy(t *testing.T) {
	now := time.Now().UTC().Truncate(time.Second)
	in := []Entry{
		{Href: "/store", Dir: true, ModTime: now},
		{Href: "/store/f.rnt", Size: 700 << 20, ModTime: now},
		{Href: "/store/empty", Size: 0},
		{Href: "/store/sub", Dir: true},
	}
	body, err := EncodeMultistatus(in)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := DecodeMultistatus(body)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := DecodeMultistatusStream(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(legacy) {
		t.Fatalf("streamed %d entries, legacy %d", len(streamed), len(legacy))
	}
	for i := range legacy {
		if streamed[i] != legacy[i] {
			t.Fatalf("entry %d: streamed %+v != legacy %+v", i, streamed[i], legacy[i])
		}
	}
}

// TestStreamDecodeAllocsDrop pins why the client decodes off the stream: on
// a 10k-entry listing the tag scanner must allocate at most half of what
// the materialize-then-Unmarshal oracle pays, with identical entries.
func TestStreamDecodeAllocsDrop(t *testing.T) {
	const n = 10000
	in := make([]Entry, 0, n+1)
	in = append(in, Entry{Href: "/flat", Dir: true})
	for i := 0; i < n; i++ {
		in = append(in, Entry{Href: fmt.Sprintf("/flat/f%05d.rnt", i), Size: int64(i)})
	}
	body, err := EncodeMultistatus(in)
	if err != nil {
		t.Fatal(err)
	}
	var streamed, oracle []Entry
	streaming := testing.AllocsPerRun(3, func() {
		if streamed, err = DecodeMultistatusStream(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	})
	materialized := testing.AllocsPerRun(3, func() {
		if oracle, err = DecodeMultistatus(body); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(streamed, oracle) {
		t.Fatal("streamed entries differ from the oracle's")
	}
	t.Logf("allocs/op: streaming=%.0f oracle=%.0f (%.0f%% drop)", streaming, materialized, 100*(1-streaming/materialized))
	if streaming > materialized/2 {
		t.Fatalf("streaming decode %.0f allocs/op not ≤ half of the oracle's %.0f", streaming, materialized)
	}
}

// TestStreamDecodePrefixedNamespaces accepts the "<D:...>" prefixed style
// real WebDAV servers emit.
func TestStreamDecodePrefixedNamespaces(t *testing.T) {
	doc := `<?xml version="1.0"?>
<D:multistatus xmlns:D="DAV:">
 <D:response>
  <D:href>/data/run1</D:href>
  <D:propstat><D:prop><D:resourcetype><D:collection/></D:resourcetype></D:prop>
   <D:status>HTTP/1.1 200 OK</D:status></D:propstat>
 </D:response>
 <D:response>
  <D:href>/data/run1/a.rnt</D:href>
  <D:propstat><D:prop><D:getcontentlength>42</D:getcontentlength></D:prop>
   <D:status>HTTP/1.1 200 OK</D:status></D:propstat>
 </D:response>
</D:multistatus>`
	got, err := DecodeMultistatusStream(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got[0].Dir || got[0].Href != "/data/run1" ||
		got[1].Dir || got[1].Size != 42 || got[1].Href != "/data/run1/a.rnt" {
		t.Fatalf("entries = %+v", got)
	}
}

// TestStreamDecodeEscapedHrefs: character references in hrefs must decode
// exactly as the legacy path does (the encoder escapes &<>'" and emits
// numeric references).
func TestStreamDecodeEscapedHrefs(t *testing.T) {
	in := []Entry{
		{Href: `/store/a&b <c> "d" 'e'`, Size: 9},
		{Href: "/store/plain", Size: 1},
	}
	body, err := EncodeMultistatus(in)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := DecodeMultistatus(body)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := DecodeMultistatusStream(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != 2 || streamed[0] != legacy[0] || streamed[1] != legacy[1] {
		t.Fatalf("streamed %+v, legacy %+v", streamed, legacy)
	}
	if streamed[0].Href != in[0].Href {
		t.Fatalf("href = %q, want %q", streamed[0].Href, in[0].Href)
	}
}

// TestStreamDecodeCommentsAndCDATA: comments are skipped, CDATA content is
// captured verbatim.
func TestStreamDecodeCommentsAndCDATA(t *testing.T) {
	doc := `<?xml version="1.0"?>
<multistatus xmlns="DAV:"><!-- a comment with <tags> & ampersands -->
 <response>
  <href><![CDATA[/data/raw&stuff]]></href>
  <propstat><prop><getcontentlength>7</getcontentlength></prop></propstat>
 </response>
</multistatus>`
	got, err := DecodeMultistatusStream(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Href != "/data/raw&stuff" || got[0].Size != 7 {
		t.Fatalf("entries = %+v", got)
	}
}

// TestStreamDecodeCDATATrailingBrackets: CDATA content ending in "]" or
// "]]" must not confuse the "]]>" terminator match, and comment/PI
// terminators must survive runs of their first byte.
func TestStreamDecodeCDATATrailingBrackets(t *testing.T) {
	for _, tc := range []struct{ cdata, want string }{
		{"/data/x[1]", "/data/x[1]"},
		{"/data/y]]", "/data/y]]"},
		{"]", "]"},
		{"a]b]>c", "a]b]>c"},
	} {
		doc := `<multistatus xmlns="DAV:"><!-- dashes ----><?pi ??>
 <response><href><![CDATA[` + tc.cdata + `]]></href></response></multistatus>`
		got, err := DecodeMultistatusStream(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("cdata %q: %v", tc.cdata, err)
		}
		if len(got) != 1 || got[0].Href != tc.want {
			t.Fatalf("cdata %q: entries = %+v", tc.cdata, got)
		}
	}
}

// TestStreamDecodeGarbage covers malformed inputs: non-XML noise, a bad
// size property, a mid-tag cut, and markup encoding/xml refuses that the
// scanner accepted before it checked end tags and character references.
func TestStreamDecodeGarbage(t *testing.T) {
	for _, bad := range []string{
		"<<<<",
		`<multistatus xmlns="DAV:"><response><href>/f</href><propstat><prop>` +
			`<getcontentlength>forty-two</getcontentlength></prop></propstat></response></multistatus>`,
		`<multistatus xmlns="DAV:"><resp`,
		"",                    // empty body under a 207
		"proxy error page",    // no XML at all
		`<html><body></html>`, // wrong document element
		`</multistatus>`,      // end tag with nothing open
		`<multistatus xmlns="DAV:">` + // cut between two responses
			`<response><href>/a</href></response>`,
		msHead + `<response><href>/a</hr ef></response></multistatus>`,
		msHead + `<response><href>/a</href></response></multistatus trailing>`,
		msHead + `<response><href>/a&#0;</href></response></multistatus>`,
		msHead + `<response><href>/a&#x110000;</href></response></multistatus>`,
		msHead + `<response><href>/a&#xFFFE;</href></response></multistatus>`,
		msHead + `<response><href>/a</x></response></multistatus>`,
	} {
		if _, err := DecodeMultistatus([]byte(bad)); err == nil {
			t.Fatalf("oracle accepts %q", bad)
		}
		if got, err := DecodeMultistatusStream(strings.NewReader(bad)); err == nil {
			t.Errorf("no error for %q: %+v", bad, got)
		}
	}
}

// TestStreamDecodeTruncated asserts a body cut inside a response entry is
// reported instead of silently dropping the partial entry.
func TestStreamDecodeTruncated(t *testing.T) {
	body, err := EncodeMultistatus([]Entry{
		{Href: "/a", Size: 1},
		{Href: "/b", Size: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	full, err := DecodeMultistatusStream(bytes.NewReader(body))
	if err != nil || len(full) != 2 {
		t.Fatalf("full decode: %v entries, err=%v", full, err)
	}
	// Cut the document inside the second <response>.
	cut := bytes.LastIndex(body, []byte("<href>"))
	if cut < 0 {
		t.Fatal("no href marker")
	}
	if _, err := DecodeMultistatusStream(bytes.NewReader(body[:cut+3])); err == nil {
		t.Fatal("truncated document decoded without error")
	}
}

func TestStreamDecodeEmptyDoc(t *testing.T) {
	body, err := EncodeMultistatus(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMultistatusStream(bytes.NewReader(body))
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v err %v", got, err)
	}
}

// TestMultistatusWriterMatchesEncode asserts the streaming encoder emits
// byte-identical documents to the materializing EncodeMultistatus across
// entry shapes: files, collections, zero mod times, and hrefs needing
// escaping.
func TestMultistatusWriterMatchesEncode(t *testing.T) {
	now := time.Now().UTC().Truncate(time.Second)
	for name, in := range map[string][]Entry{
		"empty": nil,
		"mixed": {
			{Href: "/store", Dir: true, ModTime: now},
			{Href: "/store/f.rnt", Size: 700 << 20, ModTime: now},
			{Href: "/store/empty", Size: 0},
			{Href: "/store/sub", Dir: true},
		},
		"escaped": {
			{Href: `/store/a&b <c> "d" 'e'`, Size: 9, ModTime: now},
		},
		"single-dir": {
			{Href: "/top", Dir: true},
		},
	} {
		want, err := EncodeMultistatus(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		writeDoc(t, &buf, in)
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s: streamed document differs from EncodeMultistatus\nstreamed:\n%s\nwant:\n%s",
				name, buf.Bytes(), want)
		}
	}
}

// TestMultistatusWriterBytesPerEntry pins what a listing costs on the
// wire. A leaf collection of the meta_walk_tcp benchmark's shape (27-byte
// hrefs, 2-digit sizes) costs exactly 230 B per file entry, on top of a
// fixed frame: the XML header, the multistatus element (79 B) and the
// collection's own entry (231 B). Whitespace between elements would add to
// every entry.
func TestMultistatusWriterBytesPerEntry(t *testing.T) {
	const files, perFile, frame = 400, 230, 79 + 231
	now := time.Date(2014, 6, 30, 12, 0, 0, 0, time.UTC)
	listing := func(n int) int {
		var buf bytes.Buffer
		in := []Entry{{Href: "/tree/d00/c00", Dir: true, ModTime: now}}
		for i := 0; i < n; i++ {
			in = append(in, Entry{Href: fmt.Sprintf("/tree/d00/c00/f%03d-%04x.dat", i, i*7919%65536), Size: int64(10 + i%90), ModTime: now})
		}
		writeDoc(t, &buf, in)
		return buf.Len()
	}
	if got := listing(0); got != frame {
		t.Errorf("frame: %d B, want %d", got, frame)
	}
	if got := listing(1) - listing(0); got != perFile {
		t.Errorf("one file entry: %d B, want %d", got, perFile)
	}
	if got, want := listing(files), frame+files*perFile; got != want {
		t.Errorf("%d-file listing: %d B (%.2f B per file entry), want %d", files, got, float64(got-frame)/files, want)
	}
}

// TestMultistatusWriterDecodes round-trips a streamed document through both
// decoders.
func TestMultistatusWriterDecodes(t *testing.T) {
	now := time.Now().UTC().Truncate(time.Second)
	in := []Entry{
		{Href: "/store", Dir: true, ModTime: now},
		{Href: `/store/a&b`, Size: 42, ModTime: now},
	}
	var buf bytes.Buffer
	writeDoc(t, &buf, in)
	for name, dec := range map[string]func() ([]Entry, error){
		"legacy": func() ([]Entry, error) { return DecodeMultistatus(buf.Bytes()) },
		"stream": func() ([]Entry, error) { return DecodeMultistatusStream(bytes.NewReader(buf.Bytes())) },
	} {
		got, err := dec()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(in) {
			t.Fatalf("%s: %d entries, want %d", name, len(got), len(in))
		}
		for i := range in {
			if got[i].Href != in[i].Href || got[i].Size != in[i].Size ||
				got[i].Dir != in[i].Dir || !got[i].ModTime.Equal(in[i].ModTime) {
				t.Fatalf("%s: entry %d = %+v, want %+v", name, i, got[i], in[i])
			}
		}
	}
}

// TestMultistatusWriterMisuse: writing after Close is an error, Close is
// idempotent.
func TestMultistatusWriterMisuse(t *testing.T) {
	var buf bytes.Buffer
	mw := NewMultistatusWriter(&buf)
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mw.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := mw.WriteEntry(Entry{Href: "/x"}); err == nil {
		t.Fatal("WriteEntry after Close succeeded")
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := DecodeMultistatus([]byte("<<<<")); err == nil {
		t.Fatal("expected xml error")
	}
}

func TestDecodeEmptyDoc(t *testing.T) {
	body, err := EncodeMultistatus(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMultistatus(body)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v err %v", got, err)
	}
}

// countingWriter records what reaches it and how many Writes carried it,
// failing every Write from the failAt-th on when failAt > 0.
type countingWriter struct {
	buf    bytes.Buffer
	writes int
	failAt int
}

var errWriteFailed = errors.New("write failed")

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	if c.failAt > 0 && c.writes >= c.failAt {
		return 0, errWriteFailed
	}
	return c.buf.Write(p)
}

// writeDoc streams in through a MultistatusWriter onto w.
func writeDoc(t *testing.T, w io.Writer, in []Entry) {
	t.Helper()
	mw := NewMultistatusWriter(w)
	for _, e := range in {
		if err := mw.WriteEntry(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMultistatusWriterBatchesWrites: entries reach the underlying writer
// in buffers of at least 32 KiB, not one Write each, and the document is
// still byte for byte the oracle's.
func TestMultistatusWriterBatchesWrites(t *testing.T) {
	now := time.Date(2014, 6, 30, 12, 0, 0, 0, time.UTC)
	in := []Entry{{Href: "/tree", Dir: true, ModTime: now}}
	for i := 0; i < 399; i++ {
		in = append(in, Entry{Href: fmt.Sprintf("/tree/f%04d.dat", i), Size: int64(i), ModTime: now})
	}
	want, err := EncodeMultistatus(in)
	if err != nil {
		t.Fatal(err)
	}
	var cw countingWriter
	writeDoc(t, &cw, in)
	if !bytes.Equal(cw.buf.Bytes(), want) {
		t.Fatal("batched document differs from EncodeMultistatus")
	}
	if limit := (len(want)+flushAt-1)/flushAt + 1; cw.writes > limit {
		t.Fatalf("%d entries (%d bytes) took %d Writes, want at most %d", len(in), len(want), cw.writes, limit)
	}

	cw = countingWriter{}
	writeDoc(t, &cw, in[:1])
	if cw.writes != 1 {
		t.Fatalf("one entry and Close took %d Writes, want 1", cw.writes)
	}
}

// TestMultistatusWriterHugeEntry: an entry larger than the pooled buffer
// grows it and still comes out byte-identical and decodable.
func TestMultistatusWriterHugeEntry(t *testing.T) {
	in := []Entry{
		{Href: "/a", Size: 1},
		{Href: "/" + strings.Repeat("h&", 40<<10), Size: 2, ModTime: time.Unix(1404129600, 0)},
		{Href: "/z", Dir: true},
	}
	want, err := EncodeMultistatus(in)
	if err != nil {
		t.Fatal(err)
	}
	var cw countingWriter
	writeDoc(t, &cw, in)
	if !bytes.Equal(cw.buf.Bytes(), want) {
		t.Fatal("document with a 80 KiB href differs from EncodeMultistatus")
	}
	got, err := DecodeMultistatusStream(bytes.NewReader(cw.buf.Bytes()))
	if err != nil || len(got) != 3 || got[1].Href != in[1].Href || got[2].Href != "/z" {
		t.Fatalf("decoded %d entries, err %v", len(got), err)
	}
}

// TestMultistatusWriterErrorSticks: the first failed Write is the answer
// to every later call, Close included, and a second Close writes nothing.
func TestMultistatusWriterErrorSticks(t *testing.T) {
	cw := countingWriter{failAt: 1}
	mw := NewMultistatusWriter(&cw)
	long := Entry{Href: "/" + strings.Repeat("x", flushAt)}
	if err := mw.WriteEntry(long); err != errWriteFailed {
		t.Fatalf("WriteEntry over the threshold: %v, want %v", err, errWriteFailed)
	}
	if err := mw.WriteEntry(Entry{Href: "/y"}); err != errWriteFailed {
		t.Fatalf("WriteEntry after the failure: %v", err)
	}
	if err := mw.Close(); err != errWriteFailed {
		t.Fatalf("Close: %v", err)
	}
	if err := mw.Close(); err != errWriteFailed || cw.writes != 1 || mw.buf != nil {
		t.Fatalf("second Close: %v after %d Writes, buffer released %v", err, cw.writes, mw.buf == nil)
	}

	// A failure at Close itself is Close's answer, and the buffer goes
	// back all the same.
	cw = countingWriter{failAt: 1}
	mw = NewMultistatusWriter(&cw)
	if err := mw.WriteEntry(Entry{Href: "/a"}); err != nil || cw.writes != 0 {
		t.Fatalf("small entry: %v, %d Writes", err, cw.writes)
	}
	if err := mw.Close(); err != errWriteFailed || mw.buf != nil {
		t.Fatalf("Close: %v, buffer released %v", err, mw.buf == nil)
	}
}
