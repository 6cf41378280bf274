package webdav

import (
	"encoding/xml"
	"fmt"
	"time"
)

// This file holds the encoding/xml reference implementations the tests
// compare the streaming writer and scanner against. Nothing outside the
// tests encodes or decodes a multistatus document through them.

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

// EncodeMultistatus renders entries as a 207 multistatus body the way
// MultistatusWriter must: xml.Header, then xml.Marshal's compact document.
func EncodeMultistatus(entries []Entry) ([]byte, error) {
	out, err := xml.Marshal(msDocFor(entries))
	if err != nil {
		return nil, err
	}
	return append([]byte(xml.Header), out...), nil
}

// EncodeMultistatusIndented renders the same document indented one space
// per level by xml.MarshalIndent, as servers that indent write it: the
// scanner must read both layouts.
func EncodeMultistatusIndented(entries []Entry) ([]byte, error) {
	out, err := xml.MarshalIndent(msDocFor(entries), "", " ")
	if err != nil {
		return nil, err
	}
	return append([]byte(xml.Header), out...), nil
}

// msDocFor builds the wire structure for entries.
func msDocFor(entries []Entry) msDoc {
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
	return doc
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
