package xrootd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"godavix/internal/pool"
)

// Client speaks the xrootd-like protocol to one server over a single
// multiplexed connection. Concurrent requests are tagged with stream IDs
// and may complete out of order — the "modern multiplexing" of the paper's
// Figure 1 that plain HTTP/1.1 pipelining cannot provide.
//
// A Client is safe for concurrent use.
type Client struct {
	dialer pool.Dialer
	addr   string

	mu      sync.Mutex
	conn    net.Conn
	bw      *bufio.Writer
	wmu     sync.Mutex // serializes frame writes
	pending map[uint16]chan *responseFrame
	nextSID uint16
	// dialing is closed when the in-progress dial and login finish; nil
	// when none is.
	dialing chan struct{}
	connErr error
	closed  bool
}

// NewClient creates a Client for the server at addr, dialing through d.
// The connection is established lazily on first use.
func NewClient(d pool.Dialer, addr string) *Client {
	return &Client{dialer: d, addr: addr, pending: make(map[uint16]chan *responseFrame)}
}

// connect establishes, handshakes and logs in the connection if there is
// none. One caller dials; callers arriving meanwhile wait for its login to
// finish, and every wait honours the caller's ctx. A connection is
// installed only once its login succeeded.
// Caller must NOT hold c.mu.
func (c *Client) connect(ctx context.Context) error {
	c.mu.Lock()
	for c.dialing != nil {
		wait := c.dialing
		c.mu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			return ctx.Err()
		}
		c.mu.Lock()
	}
	if c.closed {
		c.mu.Unlock()
		return errors.New("xrootd: client closed")
	}
	if c.conn != nil {
		c.mu.Unlock()
		return nil
	}
	done := make(chan struct{})
	c.dialing = done
	c.mu.Unlock()

	nc, br, err := c.dial(ctx)

	c.mu.Lock()
	defer c.mu.Unlock()
	c.dialing = nil
	close(done)
	if err == nil && c.closed {
		nc.Close()
		err = errors.New("xrootd: client closed")
	}
	if err != nil {
		return err
	}
	c.conn = nc
	c.bw = bufio.NewWriterSize(nc, 64<<10)
	c.connErr = nil
	go c.readLoop(nc, br)
	return nil
}

// dial opens a connection, handshakes and logs in (stream 0 is reserved
// for the login). Cancelling ctx closes the connection, which unblocks
// whichever step is waiting.
func (c *Client) dial(ctx context.Context) (_ net.Conn, _ *bufio.Reader, err error) {
	nc, err := c.dialer.DialContext(ctx, c.addr)
	if err != nil {
		return nil, nil, err
	}
	stop := context.AfterFunc(ctx, func() { nc.Close() })
	defer func() {
		if !stop() {
			err = ctx.Err()
		}
		if err != nil {
			nc.Close()
		}
	}()
	br := bufio.NewReaderSize(nc, 64<<10)
	var hs [8]byte
	binary.BigEndian.PutUint32(hs[0:4], Magic)
	binary.BigEndian.PutUint32(hs[4:8], Version)
	if _, err := nc.Write(hs[:]); err != nil {
		return nil, nil, err
	}
	if _, err := io.ReadFull(br, hs[:]); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	if binary.BigEndian.Uint32(hs[0:4]) != Magic {
		return nil, nil, ErrBadHandshake
	}
	var login bytes.Buffer
	writeRequest(&login, &requestFrame{Stream: 0, Op: ReqLogin, Payload: []byte("godavix")})
	if _, err := nc.Write(login.Bytes()); err != nil {
		return nil, nil, err
	}
	resp, err := readResponse(br)
	if err != nil {
		return nil, nil, err
	}
	return nc, br, statusErr(resp.Status, "login")
}

// readLoop dispatches inbound frames to their pending stream channels.
func (c *Client) readLoop(nc net.Conn, br *bufio.Reader) {
	for {
		resp, err := readResponse(br)
		if err != nil {
			c.mu.Lock()
			// Only tear down if this loop's connection is still current;
			// a reconnect may already have replaced it.
			if c.conn == nc {
				c.teardownLocked(err)
			}
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[resp.Stream]
		if ok {
			delete(c.pending, resp.Stream)
		}
		c.mu.Unlock()
		if ok {
			ch <- resp
		}
	}
}

// teardownLocked fails all pending requests and drops the connection.
// Caller holds c.mu.
func (c *Client) teardownLocked(err error) {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	c.connErr = err
	for sid, ch := range c.pending {
		close(ch)
		delete(c.pending, sid)
	}
}

// call sends one request and waits for its response.
func (c *Client) call(ctx context.Context, req *requestFrame) (*responseFrame, error) {
	if err := c.connect(ctx); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.conn == nil {
		err := c.connErr
		c.mu.Unlock()
		if err == nil {
			err = errors.New("xrootd: connection lost")
		}
		return nil, err
	}
	// Allocate a stream ID not currently pending.
	for {
		c.nextSID++
		if c.nextSID == 0 {
			c.nextSID = 1
		}
		if _, busy := c.pending[c.nextSID]; !busy {
			break
		}
	}
	sid := c.nextSID
	req.Stream = sid
	ch := make(chan *responseFrame, 1)
	c.pending[sid] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	err := writeRequest(c.bw, req)
	if err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		c.teardownLocked(err)
		c.mu.Unlock()
		return nil, err
	}

	select {
	case resp, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.connErr
			c.mu.Unlock()
			return nil, fmt.Errorf("xrootd: connection lost: %w", err)
		}
		return resp, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, sid)
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// Stat returns the size of path and whether it is a directory.
func (c *Client) Stat(ctx context.Context, path string) (size int64, dir bool, err error) {
	resp, err := c.call(ctx, &requestFrame{Op: ReqStat, Payload: []byte(path)})
	if err != nil {
		return 0, false, err
	}
	if err := statusErr(resp.Status, "stat "+path); err != nil {
		return 0, false, err
	}
	if len(resp.Payload) < 9 {
		return 0, false, errors.New("xrootd: short stat response")
	}
	return int64(binary.BigEndian.Uint64(resp.Payload[0:8])), resp.Payload[8] == 1, nil
}

// File is an open remote file handle.
type File struct {
	client *Client
	handle uint32
	size   int64
	path   string
}

// Open opens path for reading.
func (c *Client) Open(ctx context.Context, path string) (*File, error) {
	resp, err := c.call(ctx, &requestFrame{Op: ReqOpen, Payload: []byte(path)})
	if err != nil {
		return nil, err
	}
	if err := statusErr(resp.Status, "open "+path); err != nil {
		return nil, err
	}
	if len(resp.Payload) < 12 {
		return nil, errors.New("xrootd: short open response")
	}
	return &File{
		client: c,
		handle: binary.BigEndian.Uint32(resp.Payload[0:4]),
		size:   int64(binary.BigEndian.Uint64(resp.Payload[4:12])),
		path:   path,
	}, nil
}

// Size returns the file size at open time.
func (f *File) Size() int64 { return f.size }

// ReadAt reads len(p) bytes at offset off.
func (f *File) ReadAt(ctx context.Context, p []byte, off int64) (int, error) {
	if off >= f.size {
		return 0, io.EOF
	}
	resp, err := f.client.call(ctx, &requestFrame{
		Op:     ReqRead,
		Handle: f.handle,
		Offset: uint64(off),
		Length: uint32(len(p)),
	})
	if err != nil {
		return 0, err
	}
	if err := statusErr(resp.Status, "read "+f.path); err != nil {
		return 0, err
	}
	n := copy(p, resp.Payload)
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// ReadV performs a vectored read: each chunk's bytes are written into the
// matching dsts buffer. One request, one response, any number of chunks —
// the kXR_readv analogue.
func (f *File) ReadV(ctx context.Context, chunks []Chunk, dsts [][]byte) error {
	done := f.ReadVAsync(ctx, chunks, dsts)
	return <-done
}

// ReadVAsync issues the vectored read without waiting: the returned
// channel yields the single completion error. This is the hook the
// sliding-window/TreeCache prefetch uses to overlap network latency with
// computation, which the paper identifies as XRootD's WAN advantage.
func (f *File) ReadVAsync(ctx context.Context, chunks []Chunk, dsts [][]byte) <-chan error {
	done := make(chan error, 1)
	if len(chunks) != len(dsts) {
		done <- fmt.Errorf("xrootd: %d chunks but %d buffers", len(chunks), len(dsts))
		return done
	}
	for i := range chunks {
		chunks[i].Handle = f.handle
		if int64(len(dsts[i])) < int64(chunks[i].Length) {
			done <- fmt.Errorf("xrootd: buffer %d too small", i)
			return done
		}
	}
	go func() {
		resp, err := f.client.call(ctx, &requestFrame{
			Op:      ReqReadV,
			Handle:  f.handle,
			Payload: encodeChunks(chunks),
		})
		if err != nil {
			done <- err
			return
		}
		if err := statusErr(resp.Status, "readv "+f.path); err != nil {
			done <- err
			return
		}
		off := 0
		for i, ck := range chunks {
			if off+int(ck.Length) > len(resp.Payload) {
				done <- errors.New("xrootd: short readv response")
				return
			}
			copy(dsts[i][:ck.Length], resp.Payload[off:off+int(ck.Length)])
			off += int(ck.Length)
		}
		done <- nil
	}()
	return done
}

// Close releases the remote handle.
func (f *File) Close(ctx context.Context) error {
	resp, err := f.client.call(ctx, &requestFrame{Op: ReqClose, Handle: f.handle})
	if err != nil {
		return err
	}
	return statusErr(resp.Status, "close "+f.path)
}

// Close shuts the client connection down.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.teardownLocked(errors.New("xrootd: client closed"))
	return nil
}
