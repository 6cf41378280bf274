package core

import (
	"context"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"godavix/internal/digest"
	"godavix/internal/rangev"
	"godavix/internal/webdav"
	"godavix/internal/wire"
)

// Info describes a remote resource, as learned from HEAD or PROPFIND.
type Info struct {
	// Path is the resource path on the server. From a listing it is the
	// server's href, percent-encoded where a name needs it, which Stat,
	// Get and List take back as is.
	Path string
	// Size is the content length in bytes.
	Size int64
	// Dir reports whether the resource is a WebDAV collection.
	Dir bool
	// ModTime is the last modification time (zero when unknown).
	ModTime time.Time
	// Checksum is the server-reported checksum as "algo:hex", if any: the
	// Digest a HEAD's Want-Digest negotiated, else its X-Checksum.
	Checksum string
}

// Get fetches the whole object at host/path, failing over to Metalink
// replicas when the host is unavailable (unless StrategyNone).
func (c *Client) Get(ctx context.Context, host, path string) ([]byte, error) {
	var out []byte
	err := c.exec(ctx, host, path, specGet, func(h, p string) *wire.Request {
		return wire.NewRequest("GET", h, p)
	}, func(_ Replica, resp *Response) error {
		if resp.StatusCode != 200 {
			return statusErr(resp, "GET", path)
		}
		want := resp.Header.Get("X-Checksum")
		body, err := resp.ReadAllAndClose()
		if err != nil {
			return err
		}
		if c.opts.VerifyTransfers && want != "" {
			if err := verifyChecksum(body, want, path); err != nil {
				return err
			}
		}
		out = body
		return nil
	})
	return out, err
}

// GetRange fetches length bytes at offset off through the engine
// (redirects, retry budget and replica failover all apply). Like a
// range-clamping server it may return fewer bytes when the object ends
// inside the request. Servers ignoring Range (status 200) are handled by
// slicing the full body.
func (c *Client) GetRange(ctx context.Context, host, path string, off, length int64) ([]byte, error) {
	rangeVal := rangev.SingleRangeHeader(off, length)
	var out []byte
	err := c.exec(ctx, host, path, specRange, func(h, p string) *wire.Request {
		req := wire.NewRequest("GET", h, p)
		req.Header.Set("Range", rangeVal)
		return req
	}, func(_ Replica, resp *Response) error {
		switch resp.StatusCode {
		case 206:
			b, err := resp.ReadAllAndClose()
			out = b
			return err
		case 200:
			// Range-ignorant server: take the slice out of the full body.
			body, err := resp.ReadAllAndClose()
			if err != nil {
				return err
			}
			if off >= int64(len(body)) {
				return &StatusError{Code: 416, Status: "416 Requested Range Not Satisfiable", Method: "GET", Path: path}
			}
			end := off + length
			if end > int64(len(body)) {
				end = int64(len(body))
			}
			out = body[off:end]
			return nil
		default:
			return statusErr(resp, "GET", path)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Put stores data at host/path, following head-node redirects to the
// disk node designated for the upload.
func (c *Client) Put(ctx context.Context, host, path string, data []byte) error {
	return c.exec(ctx, host, path, specPut, func(h, p string) *wire.Request {
		req := wire.NewRequest("PUT", h, p)
		req.SetBodyBytes(data)
		return req
	}, func(_ Replica, resp *Response) error {
		return c.finishPut(resp, path, int64(len(data)), nil)
	})
}

// Delete removes the object at host/path.
func (c *Client) Delete(ctx context.Context, host, path string) error {
	return c.exec(ctx, host, path, specDelete, func(h, p string) *wire.Request {
		return wire.NewRequest("DELETE", h, p)
	}, func(_ Replica, resp *Response) error {
		if resp.StatusCode/100 != 2 {
			return statusErr(resp, "DELETE", path)
		}
		_, err := resp.ReadAllAndClose()
		return err
	})
}

// Mkdir creates a WebDAV collection at host/path.
func (c *Client) Mkdir(ctx context.Context, host, path string) error {
	return c.exec(ctx, host, path, specMkcol, func(h, p string) *wire.Request {
		return wire.NewRequest("MKCOL", h, p)
	}, func(_ Replica, resp *Response) error {
		if resp.StatusCode/100 != 2 {
			return statusErr(resp, "MKCOL", path)
		}
		_, err := resp.ReadAllAndClose()
		return err
	})
}

// Copy asks the server at srcHost to push srcPath to destURL (WebDAV
// third-party copy, the WLCG HTTP-TPC push pattern): the data flows
// directly between the two storage servers, never through this client.
func (c *Client) Copy(ctx context.Context, srcHost, srcPath, destURL string) error {
	return c.exec(ctx, srcHost, srcPath, specCopy, func(h, p string) *wire.Request {
		req := wire.NewRequest("COPY", h, p)
		req.Header.Set("Destination", destURL)
		return req
	}, func(_ Replica, resp *Response) error {
		if resp.StatusCode/100 != 2 {
			return statusErr(resp, "COPY", srcPath)
		}
		_, err := resp.ReadAllAndClose()
		return err
	})
}

// Stat describes the resource at host/path using HEAD, falling back to
// PROPFIND for collections (HEAD reports no size/type for them). It fails
// over as a whole, HEAD and PROPFIND together, like a read: a primary that
// is unavailable or breaker-open sends it to the Metalink's replicas.
func (c *Client) Stat(ctx context.Context, host, path string) (Info, error) {
	var inf Info
	err := c.withFailover(ctx, host, path, nil, func(r Replica) (err error) {
		inf, err = c.statReplica(ctx, r.Host, r.Path)
		return err
	})
	return inf, err
}

// statReplica is Stat of exactly one replica: what a walk over an already
// resolved ring runs on each replica. A verifying
// client offers its digest preference, so the checksum comes back in the
// algorithm its transfers will verify with.
func (c *Client) statReplica(ctx context.Context, host, path string) (Info, error) {
	var inf Info
	tryPropfind := false
	err := c.exec(ctx, host, path, specHead, func(h, p string) *wire.Request {
		req := wire.NewRequest("HEAD", h, p)
		if c.opts.VerifyTransfers {
			req.Header.Set("Want-Digest", digest.Preference)
		}
		return req
	}, func(_ Replica, resp *Response) error {
		tryPropfind = false
		switch resp.StatusCode {
		case 200:
		case 404, 502, 503, 504:
			// Not there, or the replica is unavailable: a PROPFIND to the
			// same replica would only repeat the answer, so the status
			// (with its Retry-After) goes to the failover walk.
			return statusErr(resp, "HEAD", path)
		default:
			// Collections on some servers refuse HEAD (405, 501), and some
			// frontends 4xx or 500 it while PROPFIND works fine: fall back
			// rather than surface the status. A 500 was already charged to
			// the health scoreboard by the engine; the PROPFIND gets its
			// own retry budget.
			resp.Close()
			tryPropfind = true
			return nil
		}
		inf = Info{Path: path, Checksum: resp.Header.Get("X-Checksum")}
		if named, ok := digest.FromDigestHeader(resp.Header.Get("Digest"), ""); ok {
			inf.Checksum = named.String()
		}
		if cl := resp.Header.Get("Content-Length"); cl != "" {
			inf.Size, _ = strconv.ParseInt(cl, 10, 64)
		}
		if t, ok := parseHTTPDate(resp.Header.Get("Last-Modified")); ok {
			inf.ModTime = t
		}
		resp.Close()
		return nil
	})
	if err != nil {
		return Info{}, err
	}
	if tryPropfind {
		return c.statPropfind(ctx, host, path)
	}
	return inf, nil
}

// parseHTTPDate reads a Last-Modified or Date value: an HTTP date in GMT
// without allocating, any other RFC 1123 time through time.Parse.
func parseHTTPDate(v string) (time.Time, bool) {
	if t, ok := webdav.ParseRFC1123(v, "GMT"); ok || v == "" {
		return t, ok
	}
	t, err := time.Parse(time.RFC1123, v)
	return t, err == nil
}

func (c *Client) statPropfind(ctx context.Context, host, path string) (Info, error) {
	listing, err := c.propfind(ctx, host, path, "0")
	if err != nil {
		return Info{}, err
	}
	defer putListing(listing)
	if len(*listing) == 0 {
		return Info{}, errNoResponse(path)
	}
	return (*listing)[0], nil
}

// errNoResponse is the 404 that a multistatus document without a single
// response stands for.
func errNoResponse(path string) error {
	return &StatusError{Code: 404, Status: "404 Not Found", Method: "PROPFIND", Path: path}
}

// List returns the entries of the collection at host/path (PROPFIND depth
// 1, without the collection itself), in a slice the caller owns.
func (c *Client) List(ctx context.Context, host, path string) ([]Info, error) {
	listing, _, err := c.list(ctx, host, path)
	if err != nil {
		return nil, err
	}
	defer putListing(listing)
	return append(make([]Info, 0, len(*listing)), *listing...), nil
}

// list is List without its copy: the entries stay in the pooled scratch
// listing, which the caller hands back with putListing once done with it.
// self is the response that names path itself, zero when none does; a
// collection's is taken out of the listing.
func (c *Client) list(ctx context.Context, host, path string) (listing *[]Info, self Info, err error) {
	if listing, err = c.propfind(ctx, host, path, "1"); err != nil {
		return nil, Info{}, err
	}
	all := *listing
	// The collection itself is not listed. RFC 4918 does not fix its place among the responses, so it is found by its href
	// and removed in place.
	for i, inf := range all {
		if hrefNames(inf.Path, path) {
			self = inf
			if inf.Dir {
				copy(all[i:], all[i+1:])
				all[len(all)-1] = Info{}
				*listing = all[:len(all)-1]
			}
			break
		}
	}
	return listing, self, nil
}

// hrefNames reports whether a PROPFIND href names path: the same path,
// with or without one trailing slash and a scheme://host prefix, and
// compared unescaped when either holds a percent-encoding.
func hrefNames(href, path string) bool {
	if _, rest, ok := strings.Cut(href, "://"); ok {
		href = "/"
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			href = rest[i:]
		}
	}
	href, path = strings.TrimSuffix(href, "/"), strings.TrimSuffix(path, "/")
	if href == path || !strings.Contains(href, "%") && !strings.Contains(path, "%") {
		return href == path
	}
	h, herr := url.PathUnescape(href)
	p, perr := url.PathUnescape(path)
	return herr == nil && perr == nil && h == p
}

// listings pools the scratch listings PROPFINDs decode into, so a listing
// costs Walk no slice at all and List one exact-size copy.
var listings = sync.Pool{New: func() any { return new([]Info) }}

// putListing returns a scratch listing to the pool, dropping its strings.
func putListing(l *[]Info) {
	clear((*l)[:cap(*l)])
	*l = (*l)[:0]
	listings.Put(l)
}

// propfind runs a PROPFIND at the given depth and decodes the multistatus
// document straight off the wire body into a pooled scratch listing, which
// the caller hands back with putListing. Every attempt the engine makes
// starts the listing over, so what comes back is the succeeding attempt's
// document, whole, and nothing from a failed one.
func (c *Client) propfind(ctx context.Context, host, path, depth string) (*[]Info, error) {
	listing := listings.Get().(*[]Info)
	err := c.exec(ctx, host, path, specPropfind, func(h, p string) *wire.Request {
		req := wire.NewRequest("PROPFIND", h, p)
		req.Header.Set("Depth", depth)
		return req
	}, func(_ Replica, resp *Response) error {
		*listing = (*listing)[:0]
		if resp.StatusCode != 207 {
			return statusErr(resp, "PROPFIND", path)
		}
		err := webdav.ScanMultistatus(resp.Body, func(e webdav.Entry) error {
			*listing = append(*listing, Info{Path: e.Href, Size: e.Size, Dir: e.Dir, ModTime: e.ModTime})
			return nil
		})
		resp.Close()
		if err != nil {
			return fmt.Errorf("davix: PROPFIND %s: %w", path, err)
		}
		return nil
	})
	if err != nil {
		putListing(listing)
		return nil, err
	}
	return listing, nil
}
