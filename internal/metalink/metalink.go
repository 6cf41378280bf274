// Package metalink implements the subset of the Metalink download
// description format (RFC 5854) used by davix for replica failover and
// multi-stream downloads (paper §2.4).
//
// A Metalink document describes one resource: its name, size, checksum, and
// an ordered list of replica URLs. davix fetches the Metalink for an
// unavailable resource and either fails over replica-by-replica or streams
// different chunks from different replicas in parallel.
package metalink

import (
	"encoding/xml"
	"errors"
	"fmt"
	"sort"
	"strings"
)

// MediaType is the MIME type for Metalink documents, used in Accept and
// Content-Type headers.
const MediaType = "application/metalink+xml"

// Namespace is the RFC 5854 XML namespace.
const Namespace = "urn:ietf:params:xml:ns:metalink"

// URL is one replica location with its selection priority (lower is
// preferred, as in RFC 5854).
type URL struct {
	// Loc is the replica URL ("http://dpm2:80/store/f.rnt").
	Loc string
	// Priority orders replicas; 1 is most preferred.
	Priority int
}

// Metalink describes one resource and its replicas.
type Metalink struct {
	// Name is the resource file name.
	Name string
	// Size is the resource size in bytes (-1 when unknown).
	Size int64
	// Checksum is the content checksum ("algo:hex", e.g.
	// "crc32c:xxxxxxxx"), optional.
	Checksum string
	// URLs lists replica locations.
	URLs []URL
}

// Decode errors.
var (
	ErrNoFile = errors.New("metalink: document contains no file element")
	ErrNoURLs = errors.New("metalink: file has no replica URLs")
)

// xml wire structures (RFC 5854 subset).
type xmlMetalink struct {
	XMLName xml.Name  `xml:"metalink"`
	Xmlns   string    `xml:"xmlns,attr"`
	Files   []xmlFile `xml:"file"`
}

type xmlFile struct {
	Name   string    `xml:"name,attr"`
	Size   *int64    `xml:"size"`
	Hashes []xmlHash `xml:"hash"`
	URLs   []xmlURL  `xml:"url"`
}

type xmlHash struct {
	Type  string `xml:"type,attr"`
	Value string `xml:",chardata"`
}

type xmlURL struct {
	Priority int    `xml:"priority,attr,omitempty"`
	Loc      string `xml:",chardata"`
}

// Encode renders m as a Metalink XML document.
func Encode(m *Metalink) ([]byte, error) {
	if len(m.URLs) == 0 {
		return nil, ErrNoURLs
	}
	xf := xmlFile{Name: m.Name}
	if m.Size >= 0 {
		size := m.Size
		xf.Size = &size
	}
	if m.Checksum != "" {
		typ, val, ok := strings.Cut(m.Checksum, ":")
		if !ok {
			typ, val = "adler32", m.Checksum
		}
		xf.Hashes = []xmlHash{{Type: typ, Value: val}}
	}
	for _, u := range m.URLs {
		xf.URLs = append(xf.URLs, xmlURL{Priority: u.Priority, Loc: u.Loc})
	}
	doc := xmlMetalink{Xmlns: Namespace, Files: []xmlFile{xf}}
	out, err := xml.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append([]byte(xml.Header), out...), nil
}

// Decode parses a Metalink XML document. Only the first file element is
// considered; a missing or negative size decodes as -1; URLs are returned sorted by ascending priority (stable, so
// document order breaks ties).
func Decode(data []byte) (*Metalink, error) {
	var doc xmlMetalink
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("metalink: %w", err)
	}
	if len(doc.Files) == 0 {
		return nil, ErrNoFile
	}
	xf := doc.Files[0]
	m := &Metalink{Name: xf.Name, Size: -1}
	if xf.Size != nil && *xf.Size >= 0 {
		m.Size = *xf.Size // a negative size is as unknown as a missing one
	}
	if len(xf.Hashes) > 0 {
		h := xf.Hashes[0]
		m.Checksum = strings.TrimSpace(h.Type) + ":" + strings.TrimSpace(h.Value)
	}
	for _, u := range xf.URLs {
		loc := strings.TrimSpace(u.Loc)
		if loc == "" {
			continue
		}
		m.URLs = append(m.URLs, URL{Loc: loc, Priority: u.Priority})
	}
	if len(m.URLs) == 0 {
		return nil, ErrNoURLs
	}
	sort.SliceStable(m.URLs, func(i, j int) bool { return m.URLs[i].Priority < m.URLs[j].Priority })
	return m, nil
}

// SplitURL separates a replica URL into host ("dpm1:80") and path
// ("/store/f.rnt"). Only http:// URLs are supported; the scheme is optional.
func SplitURL(u string) (host, path string, err error) {
	s := strings.TrimPrefix(u, "http://")
	if strings.Contains(s, "://") {
		return "", "", fmt.Errorf("metalink: unsupported scheme in %q", u)
	}
	i := strings.IndexByte(s, '/')
	switch {
	case i < 0:
		return s, "/", nil
	case i == 0:
		return "", "", fmt.Errorf("metalink: missing host in %q", u)
	}
	return s[:i], s[i:], nil
}
