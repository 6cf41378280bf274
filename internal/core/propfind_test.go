package core

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"godavix/internal/httpserv"
	"godavix/internal/pool"
	"godavix/internal/storage"
	"godavix/internal/webdav"
)

// cutPropfindServer answers PROPFINDs on l with canned 207 documents: the
// first cuts bad mid-document — after a complete /data/ghost entry — and
// drops the connection, every later one sends good whole. It counts the
// requests it saw.
func cutPropfindServer(t *testing.T, l net.Listener, bad, good []byte) *atomic.Int32 {
	t.Helper()
	var n atomic.Int32
	respond := func(c net.Conn, body []byte, cut int) {
		fmt.Fprintf(c, "HTTP/1.1 207 Multi-Status\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
			webdav.ContentType, len(body))
		c.Write(body[:cut])
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					if _, err := http.ReadRequest(br); err != nil {
						return
					}
					if n.Add(1) == 1 {
						respond(c, bad, bytes.Index(bad, []byte("/data/z")))
						return
					}
					respond(c, good, len(good))
				}
			}(c)
		}
	}()
	return &n
}

func propfindDocs(t *testing.T) (bad, good []byte) {
	t.Helper()
	mt := time.Date(2014, 6, 30, 12, 0, 0, 0, time.UTC)
	dir := webdav.Entry{Href: "/data", Dir: true, ModTime: mt}
	bad = multistatus(t, dir, webdav.Entry{Href: "/data/ghost", Size: 1, ModTime: mt}, webdav.Entry{Href: "/data/z", Size: 9, ModTime: mt})
	good = multistatus(t, dir, webdav.Entry{Href: "/data/a", Size: 1, ModTime: mt}, webdav.Entry{Href: "/data/b", Size: 2, ModTime: mt})
	return bad, good
}

// multistatus is the 207 body the gateway writes for entries.
func multistatus(t *testing.T, entries ...webdav.Entry) []byte {
	t.Helper()
	var b bytes.Buffer
	mw := webdav.NewMultistatusWriter(&b)
	for _, e := range entries {
		mw.WriteEntry(e)
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestListRetriesACutDocumentWhole: a 207 cut mid-document is retried, and
// the retry's listing is returned whole — each entry once, nothing from
// the cut attempt.
func TestListRetriesACutDocumentWhole(t *testing.T) {
	e := newEnv(t, Options{
		Retry: RetryPolicy{Attempts: 2, BaseBackoff: time.Millisecond},
	})
	l, err := e.net.Listen("cut:80")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	bad, good := propfindDocs(t)
	reqs := cutPropfindServer(t, l, bad, good)

	ls, err := e.client.List(context.Background(), "cut:80", "/data")
	if err != nil {
		t.Fatal(err)
	}
	if reqs.Load() != 2 {
		t.Fatalf("server saw %d PROPFINDs, want the cut one and its retry", reqs.Load())
	}
	if len(ls) != 2 || ls[0].Path != "/data/a" || ls[1].Path != "/data/b" || ls[1].Size != 2 {
		t.Fatalf("list = %+v, want /data/a and /data/b once each", ls)
	}
}

// TestListCutWithoutRetryFails: with no retry budget the cut surfaces as
// an error, with no entries.
func TestListCutWithoutRetryFails(t *testing.T) {
	e := newEnv(t, Options{})
	l, err := e.net.Listen("cut:80")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	bad, good := propfindDocs(t)
	cutPropfindServer(t, l, bad, good)

	ls, err := e.client.List(context.Background(), "cut:80", "/data")
	if err == nil || ls != nil {
		t.Fatalf("cut document: list %+v, err %v; want an error and no entries", ls, err)
	}
}

// BenchmarkPropfindList lists one 400-entry collection from the gateway
// over loopback TCP: storage listing, multistatus writing, scanning and
// the client's listing, per op.
func BenchmarkPropfindList(b *testing.B) {
	st := storage.NewMemStore()
	for i := 0; i < 400; i++ {
		if err := st.Put(fmt.Sprintf("/wide/f%03d-%04x.dat", i, i*7919%65536), make([]byte, 10+i%90)); err != nil {
			b.Fatal(err)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := httpserv.New(st, httpserv.Options{})
	go srv.Serve(l)
	defer srv.Close()
	var d net.Dialer
	c, err := NewClient(Options{Dialer: pool.DialerFunc(func(ctx context.Context, addr string) (net.Conn, error) {
		return d.DialContext(ctx, "tcp", addr)
	})})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	host := l.Addr().String()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls, err := c.List(ctx, host, "/wide")
		if err != nil || len(ls) != 400 {
			b.Fatalf("list: %d entries, %v", len(ls), err)
		}
	}
}

// cannedDAV serves PROPFINDs on l from canned depth 1 listings, keyed by
// path without a trailing slash; a depth 0 PROPFIND describes the path as
// a collection, and every other method is refused, so Stat falls back to
// PROPFIND.
func cannedDAV(t *testing.T, l net.Listener, listings map[string][]webdav.Entry) {
	t.Helper()
	docs := map[string][]byte{}
	for p, entries := range listings {
		key := strings.TrimSuffix(p, "/")
		docs[key] = multistatus(t, entries...)
		docs[key+"#0"] = multistatus(t, webdav.Entry{Href: p, Dir: true})
	}
	go http.Serve(l, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := strings.TrimSuffix(r.URL.Path, "/")
		if r.Header.Get("Depth") == "0" {
			key += "#0"
		}
		doc, ok := docs[key]
		switch {
		case r.Method != "PROPFIND":
			w.WriteHeader(http.StatusMethodNotAllowed)
		case !ok:
			w.WriteHeader(http.StatusNotFound)
		default:
			w.Header().Set("Content-Type", webdav.ContentType)
			w.WriteHeader(http.StatusMultiStatus)
			w.Write(doc)
		}
	}))
}

// TestListDropsTheCollectionByHref: List leaves out the response that
// names the listed collection wherever it stands, and only that one.
func TestListDropsTheCollectionByHref(t *testing.T) {
	f, sub := webdav.Entry{Href: "/c/f", Size: 3}, webdav.Entry{Href: "/c/sub", Dir: true}
	self := func(href string) webdav.Entry { return webdav.Entry{Href: href, Dir: true} }
	for _, row := range []struct {
		name, path string
		listing    []webdav.Entry
	}{
		{"self first", "/c", []webdav.Entry{self("/c"), f, sub}},
		{"self last", "/c", []webdav.Entry{sub, f, self("/c")}},
		{"absent", "/c", []webdav.Entry{sub, f}},
		{"trailing slash", "/c", []webdav.Entry{sub, self("/c/"), f}},
		{"listed with a slash", "/c/", []webdav.Entry{sub, self("/c"), f}},
		{"absolute URI", "/c", []webdav.Entry{sub, self("http://dav:80/c/"), f}},
		{"percent-encoded href", "/c", []webdav.Entry{sub, self("/%63/"), f}},
	} {
		t.Run(row.name, func(t *testing.T) {
			e := newEnv(t, Options{})
			l, err := e.net.Listen("dav:80")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { l.Close() })
			cannedDAV(t, l, map[string][]webdav.Entry{row.path: row.listing})
			ls, err := e.client.List(context.Background(), "dav:80", row.path)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, inf := range ls {
				got = append(got, inf.Path)
			}
			if want := []string{"/c/f", "/c/sub"}; !slices.Equal(slices.Sorted(slices.Values(got)), want) {
				t.Fatalf("listed %q, want %q", got, want)
			}
		})
	}
}

// TestWalkSelfLastListing: a walk over servers that put each collection's
// own response last ends, and emits every entry once. The root's entry is
// the root listing's own response, href as the server wrote it.
func TestWalkSelfLastListing(t *testing.T) {
	e := newEnv(t, Options{})
	l, err := e.net.Listen("dav:80")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	cannedDAV(t, l, map[string][]webdav.Entry{
		"/c":     {{Href: "/c/f", Size: 1}, {Href: "/c/sub", Dir: true}, {Href: "/c/", Dir: true}},
		"/c/sub": {{Href: "/c/sub/g", Size: 2}, {Href: "/c/sub/", Dir: true}},
	})
	var got []string
	err = e.client.Walk(context.Background(), "dav:80", "/c", func(inf Info) error {
		if got = append(got, inf.Path); len(got) > 20 {
			return errors.New("walk does not end")
		}
		return nil
	})
	if want := []string{"/c/", "/c/f", "/c/sub", "/c/sub/g"}; err != nil || !slices.Equal(got, want) {
		t.Fatalf("walk emitted %q (err %v), want %q", got, err, want)
	}
}

// TestStatHeadFallback: a HEAD that the server refuses for its own reasons
// (405 and 501 on collections, another 4xx, a frontend's 500) falls back to
// PROPFIND on the same replica, but a 404 and the statuses of an
// unavailable replica (502, 503, 504) end the Stat with that status and its
// Retry-After, so a failover walk moves on after one request.
func TestStatHeadFallback(t *testing.T) {
	const size = 4096
	for _, c := range []struct {
		code      int
		propfinds int64
	}{
		{405, 1}, {501, 1}, {403, 1}, {500, 1},
		{404, 0}, {502, 0}, {503, 0}, {504, 0},
	} {
		t.Run(fmt.Sprint(c.code), func(t *testing.T) {
			e := newEnv(t, Options{Strategy: StrategyNone})
			e.startServerHandler(t, dpm1, httpserv.Options{}, func(srv *httpserv.Server, _ *storage.MemStore) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.Method != "HEAD" {
						srv.ServeHTTP(w, r)
						return
					}
					w.Header().Set("Retry-After", "7")
					w.WriteHeader(c.code)
				})
			})
			e.stores[dpm1].Put("/f", make([]byte, size))

			inf, err := e.client.Stat(context.Background(), dpm1, "/f")
			if heads := e.faults[dpm1].Requests("HEAD"); heads != 1 {
				t.Errorf("%d HEADs, want 1", heads)
			}
			if pf := e.faults[dpm1].Requests("PROPFIND"); pf != c.propfinds {
				t.Errorf("%d PROPFINDs, want %d", pf, c.propfinds)
			}
			if c.propfinds > 0 {
				if err != nil || inf.Size != size {
					t.Fatalf("Stat after HEAD %d: %+v, %v; want the PROPFIND's size %d", c.code, inf, err, size)
				}
				return
			}
			var se *StatusError
			if !errors.As(err, &se) || se.Code != c.code || se.Method != "HEAD" || se.RetryAfter != 7*time.Second {
				t.Fatalf("Stat after HEAD %d: %v; want the HEAD's StatusError with Retry-After 7s", c.code, err)
			}
		})
	}
}

// TestWalkRootNamedByNoHref: a root that no response's href names is
// still walked by what the listing holds. A lone file is the root itself,
// emitted once; a listing without a response is a missing root; anything
// else is a collection's listing.
func TestWalkRootNamedByNoHref(t *testing.T) {
	e := newEnv(t, Options{})
	l, err := e.net.Listen("dav:80")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	cannedDAV(t, l, map[string][]webdav.Entry{
		"/file.dat": {{Href: "/mnt/file.dat", Size: 5}},
		"/empty":    {},
		"/c":        {{Href: "/mnt/c/f", Size: 1}, {Href: "/mnt/c/g", Size: 2}},
	})
	walk := func(path string) ([]Info, error) {
		var got []Info
		err := e.client.Walk(context.Background(), "dav:80", path, func(inf Info) error {
			got = append(got, inf)
			return nil
		})
		return got, err
	}
	got, err := walk("/file.dat")
	if want := []Info{{Path: "/mnt/file.dat", Size: 5}}; err != nil || !slices.Equal(got, want) {
		t.Errorf("file root: walk emitted %+v (err %v), want %+v", got, err, want)
	}
	if got, err := walk("/empty"); !errors.Is(err, ErrNotFound) || len(got) != 0 {
		t.Errorf("empty multistatus: walk emitted %+v, err %v; want nothing and ErrNotFound", got, err)
	}
	got, err = walk("/c")
	if want := []Info{{Path: "/c", Dir: true}, {Path: "/mnt/c/f", Size: 1}, {Path: "/mnt/c/g", Size: 2}}; err != nil || !slices.Equal(got, want) {
		t.Errorf("collection root: walk emitted %+v (err %v), want %+v", got, err, want)
	}
}
