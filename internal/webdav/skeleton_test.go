package webdav

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// gatewayListing is what the gateway writes for a PROPFIND depth 1 on
// /tree/d: the collection itself, then n children, every dirEvery-th of
// them a collection (0: files only). Each href is passed through esc.
func gatewayListing(n, dirEvery int, esc func(string) string) []byte {
	now := time.Date(2014, 6, 30, 12, 0, 0, 0, time.UTC)
	var buf bytes.Buffer
	mw := NewMultistatusWriter(&buf)
	mw.WriteEntry(Entry{Href: esc("/tree/d"), Dir: true, ModTime: now})
	for i := 0; i < n; i++ {
		e := Entry{Href: esc(fmt.Sprintf("/tree/d/f%03d-%04x.dat", i, i*7919%65536)), Size: int64(10 + i%90), ModTime: now.Add(time.Duration(i) * time.Second)}
		if dirEvery > 0 && i%dirEvery == dirEvery-1 {
			e = Entry{Href: esc(fmt.Sprintf("/tree/d/sub%03d", i)), Dir: true, ModTime: now}
		}
		mw.WriteEntry(e)
	}
	mw.Close()
	return buf.Bytes()
}

func plain(s string) string { return s }

// apacheListing is an Apache mod_dav style listing: "D:" and "lp1:"
// prefixes, and an etag and a creation date that differ per entry.
func apacheListing(n int) []byte {
	var b strings.Builder
	b.WriteString(`<?xml version="1.0" encoding="utf-8"?>` + "\n" + `<D:multistatus xmlns:D="DAV:" xmlns:ns0="DAV:">`)
	entry := func(href, rtype, length string, i int) {
		fmt.Fprintf(&b, `
<D:response xmlns:lp1="DAV:" xmlns:lp2="http://apache.org/dav/props/">
<D:href>%s</D:href>
<D:propstat>
<D:prop>
<lp1:resourcetype>%s</lp1:resourcetype>
<lp1:creationdate>2014-06-%02dT12:%02d:00Z</lp1:creationdate>
%s<lp1:getlastmodified>Mon, 30 Jun 2014 12:00:00 GMT</lp1:getlastmodified>
<lp1:getetag>"%x-4fd1%x"</lp1:getetag>
<D:supportedlock><D:lockentry><D:lockscope><D:exclusive/></D:lockscope><D:locktype><D:write/></D:locktype></D:lockentry></D:supportedlock>
</D:prop>
<D:status>HTTP/1.1 200 OK</D:status>
</D:propstat>
</D:response>`, href, rtype, 1+i%28, i%60, length, i*31, i)
	}
	entry("/data/run1/", "<D:collection/>", "", 0)
	for i := 1; i <= n; i++ {
		entry(fmt.Sprintf("/data/run1/evt%04d.root", i), "", fmt.Sprintf("<lp1:getcontentlength>%d</lp1:getcontentlength>\n", i*1000), i)
	}
	b.WriteString("\n</D:multistatus>\n")
	return []byte(b.String())
}

// TestSkeletonEngagement counts the entries the fast path decodes: every
// entry but those it learned from, none when no captured text can be taken
// as is, and none learned from an entry the window cut or a match would
// refuse.
func TestSkeletonEngagement(t *testing.T) {
	amp := func(s string) string { return s + "&" }
	for _, row := range []struct {
		name    string
		doc     []byte
		entries int
		fast    int
	}{
		{"gateway leaf", gatewayListing(400, 0, plain), 401, 399},
		{"gateway mixed", gatewayListing(400, 7, plain), 401, 399},
		{"apache", apacheListing(300), 301, 299},
		{"escaped hrefs", gatewayListing(400, 0, amp), 401, 0},
		// Nothing is learned from an entry a match would refuse: with the
		// collection's own href escaped, the collection skeleton comes from
		// the first subcollection.
		{"escaped self", gatewayListing(400, 7, func(s string) string {
			if s == "/tree/d" {
				return amp(s)
			}
			return s
		}), 401, 398},
		// The end of the first window cuts the collection's own entry, the
		// first one learned from, so nothing is learned from it.
		{"cut while learning", padListing(gatewayListing(3, 0, plain), "</href>", 1, 2), 4, 2},
	} {
		t.Run(row.name, func(t *testing.T) {
			var got []Entry
			fast, err := scan(bytes.NewReader(row.doc), func(e Entry) error { got = append(got, e); return nil }, true)
			if err != nil {
				t.Fatal(err)
			}
			if fast != row.fast || len(got) != row.entries {
				t.Fatalf("%d of %d entries fast, want %d of %d", fast, len(got), row.fast, row.entries)
			}
			want, err := DecodeMultistatus(row.doc)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameEntries(got, want); err != nil {
				t.Fatalf("fast path vs oracle: %v", err)
			}
		})
	}
}

// BenchmarkScanMultistatus decodes 400-entry listings: the gateway's files
// and its mixed files and collections (two skeletons), Apache's prefixed
// style, and one the fast path never matches (every href has a reference).
func BenchmarkScanMultistatus(b *testing.B) {
	for _, row := range []struct {
		name string
		doc  []byte
	}{
		{"files", gatewayListing(400, 0, plain)},
		{"mixed", gatewayListing(400, 3, plain)},
		{"prefixed", apacheListing(400)},
		{"never", gatewayListing(400, 0, func(s string) string { return s + "&" })},
	} {
		b.Run(row.name, func(b *testing.B) {
			b.SetBytes(int64(len(row.doc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := ScanMultistatus(bytes.NewReader(row.doc), func(Entry) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
