package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"godavix/internal/digest"
	"godavix/internal/metalink"
	"godavix/internal/webdav"
	"godavix/internal/wire"
)

// Info describes a remote resource, as learned from HEAD or PROPFIND.
type Info struct {
	// Path is the resource path on the server.
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
	var gen uint64
	if c.cache != nil {
		gen = c.cache.Generation()
	}
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
	if err == nil && c.cache != nil {
		// A full-object GET covers every block, trailing partial included.
		c.cache.PutSpan(cacheKey(host, path), gen, 0, out, true)
	}
	return out, err
}

// GetRange fetches length bytes at offset off with replica failover. With
// the block cache enabled it is served block-aligned through the cache;
// like a range-clamping server it may return fewer bytes when the object
// ends inside the request.
func (c *Client) GetRange(ctx context.Context, host, path string, off, length int64) ([]byte, error) {
	if c.cache != nil {
		return c.getRangeCached(ctx, host, path, off, length)
	}
	return c.getRange(ctx, host, path, off, length)
}

// getRangeCached serves GetRange through the block cache. The object size
// is unknown here (-1): short blocks mark the end of the object.
func (c *Client) getRangeCached(ctx context.Context, host, path string, off, length int64) ([]byte, error) {
	if length <= 0 {
		return nil, nil
	}
	p := make([]byte, length)
	n, err := c.cache.ReadThrough(ctx, cacheKey(host, path), -1, p, off, c.cacheFetch(host, path))
	if err != nil {
		// A 416 on a later block after serving some bytes means the request
		// straddled the end of an object whose size is a block multiple —
		// the bytes already gathered ARE the short read a clamping server
		// would have sent.
		var se *StatusError
		if n > 0 && errors.As(err, &se) && se.Code == 416 {
			return p[:n], nil
		}
		return nil, err
	}
	if n == 0 {
		// The whole request sits past the end of a cached short block;
		// match the uncached server answer for an out-of-range request.
		return nil, &StatusError{Code: 416, Status: "416 Requested Range Not Satisfiable", Method: "GET", Path: path}
	}
	return p[:n], nil
}

// getRange fetches one range through the engine (redirects, retry budget
// and replica failover all apply). Servers ignoring Range (status 200) are
// handled by slicing the full body.
func (c *Client) getRange(ctx context.Context, host, path string, off, length int64) ([]byte, error) {
	rangeVal := "bytes=" + strconv.FormatInt(off, 10) + "-" + strconv.FormatInt(off+length-1, 10)
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
// disk node designated for the upload. On success the stat cache is primed
// with the known new size (a put-then-stat storm is a memory hit) and the
// uploaded bytes are written through to the block cache: this client just
// defined the object's content, so a put-then-read costs no round trip.
func (c *Client) Put(ctx context.Context, host, path string, data []byte) error {
	var gen uint64
	err := c.exec(ctx, host, path, specPut, func(h, p string) *wire.Request {
		req := wire.NewRequest("PUT", h, p)
		req.SetBodyBytes(data)
		return req
	}, func(_ Replica, resp *Response) error {
		// The writer holds the uploaded bytes, so the primed stat entry can
		// carry their WLCG-style checksum too — but only a live stat cache
		// makes the O(size) hash worth paying.
		checksum := ""
		if c.statc != nil {
			checksum = digest.Format32(digest.Default, digest.Sum32(digest.Default, data))
		}
		g, err := c.finishPut(resp, host, path, int64(len(data)), checksum)
		gen = g
		return err
	})
	if err != nil {
		return err
	}
	if c.cache != nil && len(data) > 0 {
		// gen is finishPut's own invalidation generation, so a concurrent
		// writer's later invalidation — whose content should win — fences
		// this span out.
		c.cache.PutSpan(cacheKey(host, path), gen, 0, data, true)
	}
	return nil
}

// Delete removes the object at host/path.
func (c *Client) Delete(ctx context.Context, host, path string) error {
	err := c.exec(ctx, host, path, specDelete, func(h, p string) *wire.Request {
		return wire.NewRequest("DELETE", h, p)
	}, func(_ Replica, resp *Response) error {
		if resp.StatusCode/100 != 2 {
			return statusErr(resp, "DELETE", path)
		}
		_, err := resp.ReadAllAndClose()
		return err
	})
	if err != nil {
		return err
	}
	c.invalidateCache(host, path)
	return nil
}

// Mkdir creates a WebDAV collection at host/path.
func (c *Client) Mkdir(ctx context.Context, host, path string) error {
	err := c.exec(ctx, host, path, specMkcol, func(h, p string) *wire.Request {
		return wire.NewRequest("MKCOL", h, p)
	}, func(_ Replica, resp *Response) error {
		if resp.StatusCode/100 != 2 {
			return statusErr(resp, "MKCOL", path)
		}
		_, err := resp.ReadAllAndClose()
		return err
	})
	if err != nil {
		return err
	}
	// A fresh collection must not keep answering from a negative entry.
	c.invalidateCache(host, path)
	return nil
}

// Copy asks the server at srcHost to push srcPath to destURL (WebDAV
// third-party copy, the WLCG HTTP-TPC push pattern): the data flows
// directly between the two storage servers, never through this client.
func (c *Client) Copy(ctx context.Context, srcHost, srcPath, destURL string) error {
	err := c.exec(ctx, srcHost, srcPath, specCopy, func(h, p string) *wire.Request {
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
	if err != nil {
		return err
	}
	// The destination now holds different content: drop this client's
	// cached blocks and stat entries (negative 404s included) for it, so a
	// copy-then-stat or copy-then-read never serves the pre-copy state.
	if dHost, dPath, derr := metalink.SplitURL(destURL); derr == nil && dHost != "" {
		c.invalidateCache(dHost, dPath)
	}
	return nil
}

// Stat describes the resource at host/path using HEAD, falling back to
// PROPFIND for collections (HEAD reports no size/type for them). With
// Options.StatTTL set, results — including 404s, cached as negative
// entries — are served from the metadata cache for the TTL.
func (c *Client) Stat(ctx context.Context, host, path string) (Info, error) {
	if c.statc == nil {
		return c.statUncached(ctx, host, path)
	}
	key := cacheKey(host, path)
	if inf, cerr, ok := c.statc.Get(key); ok {
		return inf, cerr
	}
	inf, err := c.statUncached(ctx, host, path)
	switch {
	case err == nil:
		c.statc.Put(key, inf)
	case errors.Is(err, ErrNotFound):
		c.statc.PutError(key, err)
	}
	return inf, err
}

// statUncached performs the network Stat. A verifying client offers its
// digest preference, so the checksum comes back in the algorithm its
// transfers will verify with.
func (c *Client) statUncached(ctx context.Context, host, path string) (Info, error) {
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
		if resp.StatusCode != 200 {
			status := resp.Status
			code := resp.StatusCode
			resp.Close()
			if code == 404 {
				return &StatusError{Code: 404, Status: status, Method: "HEAD", Path: path}
			}
			// Collections on some servers refuse HEAD (and some frontends
			// 5xx it while PROPFIND works fine): fall back rather than
			// surface the status. Retryable statuses were already charged
			// to the health scoreboard by the engine; the PROPFIND gets
			// its own retry budget.
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
		if lm := resp.Header.Get("Last-Modified"); lm != "" {
			if t, err := time.Parse(time.RFC1123, lm); err == nil {
				inf.ModTime = t
			}
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

func (c *Client) statPropfind(ctx context.Context, host, path string) (Info, error) {
	listing, err := c.propfind(ctx, host, path, "0")
	if err != nil {
		return Info{}, err
	}
	defer putListing(listing)
	if len(*listing) == 0 {
		return Info{}, &StatusError{Code: 404, Status: "404 Not Found", Method: "PROPFIND", Path: path}
	}
	return (*listing)[0], nil
}

// List returns the entries of the collection at host/path (PROPFIND depth
// 1, without the collection itself). With Options.StatTTL set, every entry
// primes the stat cache — a Walk- or List-then-Stat storm is then absorbed
// without re-hitting the server. Primed entries carry the PROPFIND
// properties (no checksum), the same as a Stat that fell back to PROPFIND;
// a live entry from a direct Stat is never overwritten, so a HEAD-won
// checksum survives its TTL.
func (c *Client) List(ctx context.Context, host, path string) ([]Info, error) {
	listing, err := c.propfind(ctx, host, path, "1")
	if err != nil {
		return nil, err
	}
	defer putListing(listing)
	all := *listing
	if c.statc != nil {
		for _, inf := range all {
			c.statc.PutIfAbsent(cacheKey(host, inf.Path), inf)
		}
	}
	// The collection itself is primed above, not listed. RFC 4918 does
	// not fix its place among the responses, so it is found by its href.
	for i, inf := range all {
		if inf.Dir && hrefNames(inf.Path, path) {
			return append(append(make([]Info, 0, len(all)-1), all[:i]...), all[i+1:]...), nil
		}
	}
	return append(make([]Info, 0, len(all)), all...), nil
}

// hrefNames reports whether a PROPFIND href names path: the same path,
// with or without one trailing slash and a scheme://host prefix.
func hrefNames(href, path string) bool {
	if _, rest, ok := strings.Cut(href, "://"); ok {
		href = "/"
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			href = rest[i:]
		}
	}
	return strings.TrimSuffix(href, "/") == strings.TrimSuffix(path, "/")
}

// listings pools the scratch listings PROPFINDs decode into, so a listing
// costs its callers one exact-size copy instead of a doubling slice.
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
		cerr := resp.Close()
		if err != nil {
			return fmt.Errorf("davix: PROPFIND %s: %w", path, err)
		}
		return cerr
	})
	if err != nil {
		putListing(listing)
		return nil, err
	}
	return listing, nil
}
