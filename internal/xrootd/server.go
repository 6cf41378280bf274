package xrootd

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"godavix/internal/storage"
)

// Server serves the xrootd-like protocol over a storage.Store. Each
// connection carries multiplexed streams: requests are handled
// concurrently and responses are written in completion order, tagged with
// the request's stream ID — the multiplexing that classic HTTP/1.1 lacks
// (paper Figure 1, right side).
type Server struct {
	store storage.Store

	requests atomic.Int64
	readvs   atomic.Int64
}

// NewServer creates a Server over store.
func NewServer(store storage.Store) *Server {
	return &Server{store: store}
}

// Requests reports the total number of requests served.
func (s *Server) Requests() int64 { return s.requests.Load() }

// ReadVs reports how many vectored-read requests were served.
func (s *Server) ReadVs() int64 { return s.readvs.Load() }

// Serve accepts connections on l until it is closed.
func (s *Server) Serve(l net.Listener) error {
	for {
		c, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.serveConn(c)
	}
}

// session is per-connection state: the open file handle table.
type session struct {
	mu       sync.Mutex
	nextFH   uint32
	handles  map[uint32]string // handle -> path
	loggedIn bool
}

func (s *Server) serveConn(c net.Conn) {
	defer c.Close()

	// Handshake: 8 bytes magic+version, echoed with the server version.
	var hs [8]byte
	if _, err := io.ReadFull(c, hs[:]); err != nil {
		return
	}
	if binary.BigEndian.Uint32(hs[0:4]) != Magic {
		return
	}
	binary.BigEndian.PutUint32(hs[0:4], Magic)
	binary.BigEndian.PutUint32(hs[4:8], Version)
	if _, err := c.Write(hs[:]); err != nil {
		return
	}

	sess := &session{nextFH: 1, handles: make(map[uint32]string)}
	br := bufio.NewReaderSize(c, 64<<10)
	var wmu sync.Mutex // serializes response frames
	var wg sync.WaitGroup
	defer wg.Wait()

	send := func(resp *responseFrame) {
		wmu.Lock()
		defer wmu.Unlock()
		writeResponse(c, resp)
	}

	for {
		req, err := readRequest(br)
		if err != nil {
			return
		}
		s.requests.Add(1)
		// Handle each request concurrently: a slow request must not block
		// responses for later ones (no head-of-line blocking).
		wg.Add(1)
		go func(req *requestFrame) {
			defer wg.Done()
			send(s.handle(sess, req))
		}(req)
	}
}

func (s *Server) handle(sess *session, req *requestFrame) *responseFrame {
	resp := &responseFrame{Stream: req.Stream, Status: StatusOK}
	if req.Op != ReqLogin {
		sess.mu.Lock()
		authed := sess.loggedIn
		sess.mu.Unlock()
		if !authed {
			resp.Status = StatusBadRequest
			return resp
		}
	}
	switch req.Op {
	case ReqLogin:
		sess.mu.Lock()
		sess.loggedIn = true
		sess.mu.Unlock()

	case ReqOpen:
		path := string(req.Payload)
		_, inf, err := s.store.Get(path)
		if err != nil {
			resp.Status = storeStatus(err)
			return resp
		}
		sess.mu.Lock()
		fh := sess.nextFH
		sess.nextFH++
		sess.handles[fh] = path
		sess.mu.Unlock()
		resp.Payload = make([]byte, 12)
		binary.BigEndian.PutUint32(resp.Payload[0:4], fh)
		binary.BigEndian.PutUint64(resp.Payload[4:12], uint64(inf.Size))

	case ReqStat:
		inf, err := s.store.Stat(string(req.Payload))
		if err != nil {
			resp.Status = storeStatus(err)
			return resp
		}
		resp.Payload = make([]byte, 9)
		binary.BigEndian.PutUint64(resp.Payload[0:8], uint64(inf.Size))
		if inf.Dir {
			resp.Payload[8] = 1
		}

	case ReqRead:
		path, ok := sess.path(req.Handle)
		if !ok {
			resp.Status = StatusBadRequest
			return resp
		}
		data, _, err := s.store.Get(path)
		if err != nil {
			resp.Status = storeStatus(err)
			return resp
		}
		if req.Length > MaxFrame {
			resp.Status = StatusBadRequest
			return resp
		}
		resp.Payload = sliceRange(data, int64(req.Offset), int64(req.Length))

	case ReqReadV:
		s.readvs.Add(1)
		chunks, err := decodeChunks(req.Payload)
		if err != nil {
			resp.Status = StatusBadRequest
			return resp
		}
		// Summed in int64 so no chunk list can wrap past the bound.
		var total int64
		for _, ck := range chunks {
			if ck.Length < 0 {
				resp.Status = StatusBadRequest
				return resp
			}
			total += int64(ck.Length)
		}
		if total > MaxFrame {
			resp.Status = StatusBadRequest
			return resp
		}
		out := make([]byte, 0, total)
		// One store lookup per distinct handle, not per chunk.
		byHandle := make(map[uint32][]byte, 1)
		for _, ck := range chunks {
			data, ok := byHandle[ck.Handle]
			if !ok {
				path, okP := sess.path(ck.Handle)
				if !okP {
					resp.Status = StatusBadRequest
					return resp
				}
				var err error
				data, _, err = s.store.Get(path)
				if err != nil {
					resp.Status = storeStatus(err)
					return resp
				}
				byHandle[ck.Handle] = data
			}
			// Every chunk lies inside the object, or the readv is refused.
			if ck.Offset < 0 || ck.Offset > int64(len(data))-int64(ck.Length) {
				resp.Status = StatusBadRequest
				return resp
			}
			out = append(out, data[ck.Offset:ck.Offset+int64(ck.Length)]...)
		}
		resp.Payload = out

	case ReqClose:
		sess.mu.Lock()
		delete(sess.handles, req.Handle)
		sess.mu.Unlock()

	default:
		resp.Status = StatusBadRequest
	}
	return resp
}

func (sess *session) path(fh uint32) (string, bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	p, ok := sess.handles[fh]
	return p, ok
}

func storeStatus(err error) uint16 {
	if errors.Is(err, storage.ErrNotFound) {
		return StatusNotFound
	}
	if errors.Is(err, storage.ErrIsDir) || errors.Is(err, storage.ErrNotDir) {
		return StatusBadRequest
	}
	return StatusIOError
}

// sliceRange returns data[off:off+length] clamped to the data size.
func sliceRange(data []byte, off, length int64) []byte {
	if off >= int64(len(data)) || off < 0 {
		return nil
	}
	end := off + length
	if end > int64(len(data)) {
		end = int64(len(data))
	}
	return data[off:end]
}
