package xrootd

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"godavix/internal/storage"
)

// FuzzServerReadV feeds arbitrary request-frame bytes through readRequest
// and handle on a logged-in session holding handle 1 on a stored object.
// The server must never panic and never answer more than MaxFrame, and an
// OK readv answer must be exactly the concatenation of its chunks' bytes,
// sliced straight from the object.
func FuzzServerReadV(f *testing.F) {
	obj := make([]byte, 1000)
	for i := range obj {
		obj[i] = byte(i * 7)
	}
	store := storage.NewMemStore()
	if err := store.Put("/obj", obj); err != nil {
		f.Fatal(err)
	}
	srv := NewServer(store)

	frame := func(op uint16, payload []byte) []byte {
		var b bytes.Buffer
		writeRequest(&b, &requestFrame{Stream: 9, Op: op, Handle: 1, Payload: payload})
		return b.Bytes()
	}
	readv := func(lengths ...int32) []byte {
		chunks := make([]Chunk, len(lengths))
		for i, n := range lengths {
			chunks[i] = Chunk{Handle: 1, Offset: int64(i * 10), Length: n}
		}
		return frame(ReqReadV, encodeChunks(chunks))
	}
	f.Add(readv(-1))
	f.Add(readv(0))
	f.Add(readv(4, -4))
	f.Add(readv(math.MaxInt32))
	f.Add(readv(math.MaxInt32, math.MaxInt32))
	f.Add(readv(MaxFrame - 1))
	f.Add(readv(MaxFrame + 1))
	f.Add(readv(MaxFrame/2, MaxFrame/2+1))
	f.Add(readv(3, 10, 990))
	f.Add(frame(ReqReadV, encodeChunks([]Chunk{{Handle: 1, Offset: 5000, Length: 0}})))
	f.Add(frame(ReqReadV, encodeChunks([]Chunk{{Handle: 1, Offset: math.MaxInt64 - 1, Length: 10}})))
	f.Add(frame(ReqReadV, make([]byte, chunkWireLen+5))) // misaligned chunk list
	f.Add(frame(ReqReadV, make([]byte, chunkWireLen-1)))
	f.Add(frame(ReqRead, nil))
	f.Add(frame(ReqOpen, []byte("/obj")))

	f.Fuzz(func(t *testing.T, in []byte) {
		// A header may claim up to MaxFrame payload bytes; readRequest
		// allocates the claim before reading, so claims the input cannot
		// cover would only make the fuzzer allocate, not explore.
		if len(in) >= reqHeaderLen && int64(binary.BigEndian.Uint32(in[20:24])) > int64(len(in)-reqHeaderLen) {
			return
		}
		req, err := readRequest(bytes.NewReader(in))
		if err != nil {
			return
		}
		sess := &session{nextFH: 2, handles: map[uint32]string{1: "/obj"}, loggedIn: true}
		resp := srv.handle(sess, req)
		if resp.Stream != req.Stream {
			t.Fatalf("response stream %d for request stream %d", resp.Stream, req.Stream)
		}
		if len(resp.Payload) > MaxFrame {
			t.Fatalf("op %d: %d-byte answer exceeds MaxFrame", req.Op, len(resp.Payload))
		}
		if req.Op != ReqReadV || resp.Status != StatusOK {
			return
		}
		chunks, err := decodeChunks(req.Payload)
		if err != nil {
			t.Fatalf("OK answer to an undecodable chunk list: %v", err)
		}
		var want []byte
		for _, ck := range chunks {
			end := ck.Offset + int64(ck.Length)
			if ck.Handle != 1 || ck.Offset < 0 || ck.Length < 0 || end > int64(len(obj)) {
				t.Fatalf("OK answer to an invalid chunk %+v", ck)
			}
			want = append(want, obj[ck.Offset:end]...)
		}
		if !bytes.Equal(resp.Payload, want) {
			t.Fatalf("readv payload differs from the stored bytes: got %d bytes, want %d", len(resp.Payload), len(want))
		}
	})
}
