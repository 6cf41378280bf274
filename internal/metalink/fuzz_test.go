package metalink

import (
	"cmp"
	"encoding/xml"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// FuzzMetalinkRoundTrip holds Decode to three properties: it never panics;
// a document it accepts re-encodes to one that decodes to an equal
// Metalink; and the URLs come back ordered by priority, ties in document
// order.
func FuzzMetalinkRoundTrip(f *testing.F) {
	sorted := &Metalink{Name: "f", Size: 1, URLs: []URL{
		{Loc: "http://c/f", Priority: 3}, {Loc: "http://a/f", Priority: 1}, {Loc: "http://b/f", Priority: 2},
	}}
	for _, m := range []*Metalink{sample(), sorted} {
		data, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, doc := range []string{
		`<metalink xmlns="urn:ietf:params:xml:ns:metalink"><file name="f"><size>1</size>` +
			`<url priority="1">http://first/f</url><url priority="1">http://second/f</url></file></metalink>`,
		`<metalink xmlns="x"></metalink>`,
		`<metalink xmlns="x"><file name="f"><size>1</size></file></metalink>`,
		"not xml at all",
		`<metalink xmlns="x"><file name="f"><url>http://a/f</url></file></metalink>`,
		`<metalink xmlns="x"><file name="f"><size>-5</size><url>http://a/f</url></file></metalink>`,
		`<metalink xmlns="x"><file name="f"><size>7</size><hash type=" adler32 ">` + "\n  0011aabb \t" +
			`</hash><url priority="2"> http://b/f </url><url priority="1">http://a/f</url></file></metalink>`,
		`<metalink xmlns="x"><file name="f"><url priority="2">http://b1/f</url><url priority="1">http://a/f</url>` +
			`<url priority="2">http://b2/f</url><url>http://z/f</url><url priority="2">http://b3/f</url></file></metalink>`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		// The URLs in document order, stably sorted by priority.
		var doc xmlMetalink
		if err := xml.Unmarshal(data, &doc); err != nil {
			t.Fatalf("Decode accepted what xml.Unmarshal refuses: %v", err)
		}
		var want []URL
		for _, u := range doc.Files[0].URLs {
			if loc := strings.TrimSpace(u.Loc); loc != "" {
				want = append(want, URL{Loc: loc, Priority: u.Priority})
			}
		}
		slices.SortStableFunc(want, func(a, b URL) int { return cmp.Compare(a.Priority, b.Priority) })
		if !slices.Equal(m.URLs, want) {
			t.Fatalf("URLs = %+v, want %+v", m.URLs, want)
		}
		enc, err := Encode(m)
		if err != nil {
			t.Fatalf("Encode(%+v): %v", m, err)
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(Encode(%+v)): %v\n%s", m, err, enc)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip:\n got %+v\nwant %+v\n%s", back, m, enc)
		}
	})
}
