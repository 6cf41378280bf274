package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"

	"godavix/internal/bufpool"
	"godavix/internal/httpserv"
	"godavix/internal/metalink"
	"godavix/internal/rangev"
	"godavix/internal/rootio"
	"godavix/internal/storage"
)

// openEnv serves blob at /f from dpm1 to a client without Metalink, so
// request counts are exact, and opens it.
func openEnv(t *testing.T, blob []byte, wrap func(*httpserv.Server, *storage.MemStore) http.Handler) (*testEnv, *File) {
	t.Helper()
	e := newEnv(t, Options{Strategy: StrategyNone})
	e.startServerHandler(t, dpm1, httpserv.Options{}, wrap)
	if err := e.stores[dpm1].Put("/f", blob); err != nil {
		t.Fatal(err)
	}
	f, err := e.client.Open(context.Background(), dpm1, "/f")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if f.Size() != int64(len(blob)) {
		t.Fatalf("size = %d, want %d", f.Size(), len(blob))
	}
	return e, f
}

func randomBlob(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// readVec reads ranges through f.ReadVec and checks them against blob.
func readVec(t *testing.T, f *File, blob []byte, ranges []rangev.Range) {
	t.Helper()
	dsts := make([][]byte, len(ranges))
	for i, r := range ranges {
		dsts[i] = make([]byte, r.Len)
	}
	if err := f.ReadVec(ranges, dsts); err != nil {
		t.Fatalf("ReadVec %v: %v", ranges, err)
	}
	for i, r := range ranges {
		if !bytes.Equal(dsts[i], blob[r.Off:r.End()]) {
			t.Fatalf("ReadVec range %v: wrong bytes", r)
		}
	}
}

// readAt reads [off, off+n) through f.ReadAt and checks it against blob.
func readAt(t *testing.T, f *File, blob []byte, off, n int64) {
	t.Helper()
	p := make([]byte, n)
	if got, err := f.ReadAt(p, off); err != nil || got != int(n) || !bytes.Equal(p, blob[off:off+n]) {
		t.Fatalf("ReadAt [%d,+%d): n=%d err=%v", off, n, got, err)
	}
}

// TestOpenThenOpenReaderIsOneGet: opening a ROOT-style file and reading
// its header, trailer and index costs one GET and no HEAD, since the index
// sits in the file's last endsTail bytes.
func TestOpenThenOpenReaderIsOneGet(t *testing.T) {
	img, err := rootio.Synthesize(rootio.SynthSpec{Events: 512, Branches: 12, MeanPayload: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(img) <= endsHead+endsTail {
		t.Fatalf("file of %d bytes fits in the ends; the test needs a larger one", len(img))
	}
	e, f := openEnv(t, img, nil)
	r, err := rootio.OpenReader(rootio.Source{Size: f.Size(), ReadVec: f.ReadVec, ReadVecAsyncCtx: f.ReadVecAsyncCtx})
	if err != nil {
		t.Fatal(err)
	}
	if r.Events() != 512 {
		t.Fatalf("events = %d, want 512", r.Events())
	}
	srv := e.srvs[dpm1]
	if srv.Requests() != 1 || srv.RequestsByMethod("GET") != 1 || srv.RequestsByMethod("HEAD") != 0 {
		t.Fatalf("requests = %d (%d GET, %d HEAD), want 1 GET", srv.Requests(), srv.RequestsByMethod("GET"), srv.RequestsByMethod("HEAD"))
	}
}

// TestOpenSmallObjectIsOneRequest: an object no larger than the ends comes
// whole with the open, and no read of it touches the wire.
func TestOpenSmallObjectIsOneRequest(t *testing.T) {
	for _, size := range []int{1, endsHead - 1, endsHead + 1, 10 << 10, endsHead + endsTail - 1, endsHead + endsTail} {
		blob := randomBlob(size, int64(size))
		e, f := openEnv(t, blob, nil)
		n := int64(size)
		readAt(t, f, blob, 0, n)
		readAt(t, f, blob, n/2, n-n/2)
		readVec(t, f, blob, []rangev.Range{{Off: n - 1, Len: 1}, {Off: 0, Len: n}, {Off: n / 3, Len: n - n/3}})
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		if all, err := io.ReadAll(f); err != nil || !bytes.Equal(all, blob) {
			t.Fatalf("size %d: ReadAll = %d bytes, err %v", size, len(all), err)
		}
		if got := e.srvs[dpm1].Requests(); got != 1 {
			t.Fatalf("size %d: %d requests, want 1", size, got)
		}
	}
}

// TestOpenEmptyObject: the ends request on an empty object names no
// range. The gateway answers it as net/http does, with a 206 whose
// Content-Range is "bytes 0--1/0"; RFC 9110 would have a 416 with
// "bytes */0". Either is size 0 from the one GET, with no HEAD.
func TestOpenEmptyObject(t *testing.T) {
	for _, answer416 := range []bool{false, true} {
		t.Run(map[bool]string{false: "gateway 206", true: "416"}[answer416], func(t *testing.T) {
			var mu sync.Mutex
			methods := map[string]int{}
			_, f := openEnv(t, nil, func(srv *httpserv.Server, _ *storage.MemStore) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					mu.Lock()
					methods[r.Method]++
					mu.Unlock()
					if answer416 && r.Header.Get("Range") == endsRange {
						w.Header().Set("Content-Range", "bytes */0")
						w.WriteHeader(http.StatusRequestedRangeNotSatisfiable)
						return
					}
					srv.ServeHTTP(w, r)
				})
			})
			if n, err := f.ReadAt(make([]byte, 1), 0); n != 0 || err != io.EOF {
				t.Fatalf("ReadAt on an empty object: n=%d err=%v", n, err)
			}
			if all, err := io.ReadAll(f); err != nil || len(all) != 0 {
				t.Fatalf("ReadAll on an empty object: %d bytes, err %v", len(all), err)
			}
			mu.Lock()
			defer mu.Unlock()
			if methods["GET"] != 1 || len(methods) != 1 {
				t.Fatalf("requests by method %v, want the one GET", methods)
			}
		})
	}
}

// TestOpenLargeObjectReadsOutsideEndsGoToTheWire: reads wholly inside the
// first endsHead or the last endsTail bytes are copied from memory, whichever read
// call makes them; a call with other ranges sends only those.
func TestOpenLargeObjectReadsOutsideEndsGoToTheWire(t *testing.T) {
	blob := randomBlob(200<<10, 3)
	e, f := openEnv(t, blob, nil)
	size := int64(len(blob))
	tail := size - endsTail
	requests := func() int64 { return e.srvs[dpm1].Requests() - 1 }

	readAt(t, f, blob, 0, endsHead)
	readAt(t, f, blob, tail, endsTail)
	readVec(t, f, blob, []rangev.Range{{Off: size - 16, Len: 16}, {Off: 8, Len: 100}, {Off: tail, Len: 1}})
	dst := make([]byte, 64)
	if err := <-f.ReadVecAsyncCtx(context.Background(), []rangev.Range{{Off: tail + 10, Len: 64}}, [][]byte{dst}); err != nil || !bytes.Equal(dst, blob[tail+10:tail+74]) {
		t.Fatalf("async read inside the tail: err %v", err)
	}
	if got := requests(); got != 0 {
		t.Fatalf("%d requests for reads inside the ends, want 0", got)
	}

	// Straddling the head's end, or starting just before the tail: one GET
	// each.
	readAt(t, f, blob, endsHead-10, 20)
	readAt(t, f, blob, tail-1, 2)
	if got := requests(); got != 2 {
		t.Fatalf("%d requests for two reads leaving the ends, want 2", got)
	}
	// A vectored read sends only its ranges outside the ends, in one GET.
	readVec(t, f, blob, []rangev.Range{{Off: 0, Len: 10}, {Off: 100 << 10, Len: 10}, {Off: size - 10, Len: 10}, {Off: 50 << 10, Len: 10}})
	if got := requests(); got != 3 {
		t.Fatalf("%d requests after a mixed vectored read, want 3", got)
	}
}

// TestOpenSinglePartAnswers: a server that answers the ends request with
// one part — the first range only, or the whole object as one range — still
// gives the size, and what the part covers is kept.
func TestOpenSinglePartAnswers(t *testing.T) {
	blob := randomBlob(200<<10, 4)
	size := int64(len(blob))
	for _, c := range []struct {
		name     string
		rng      string
		tailFree bool
	}{
		{"first range only", "bytes=0-4095", false},
		{"coalesced", "bytes=0-", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, f := openEnv(t, blob, func(srv *httpserv.Server, _ *storage.MemStore) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.Header.Get("Range") == endsRange {
						r.Header.Set("Range", c.rng)
					}
					srv.ServeHTTP(w, r)
				})
			})
			readAt(t, f, blob, 0, endsHead)
			readAt(t, f, blob, size-100, 100)
			want := int64(2)
			if c.tailFree {
				want = 1
			}
			if got := e.srvs[dpm1].Requests(); got != want {
				t.Fatalf("%d requests, want %d", got, want)
			}
		})
	}
}

// TestOpenRangeIgnoringServer: a 200 carrying a large object gives the
// size; the body is not read and the connection is dropped, not pooled.
func TestOpenRangeIgnoringServer(t *testing.T) {
	blob := randomBlob(1<<20, 5)
	e, f := openEnv(t, blob, func(srv *httpserv.Server, _ *storage.MemStore) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.Header.Del("Range")
			srv.ServeHTTP(w, r)
		})
	})
	if down := e.client.Metrics().BytesDown; down > 32<<10 {
		t.Fatalf("open read %d bytes of a 1 MiB body", down)
	}
	if st := e.client.Snapshot().Pool; st.Discards != 1 {
		t.Fatalf("pool discards = %d, want the open's connection dropped", st.Discards)
	}
	readAt(t, f, blob, 0, 10)
	if got := e.srvs[dpm1].Requests(); got != 2 {
		t.Fatalf("%d requests, want the open and one read", got)
	}
}

// TestOpenNotFoundAndCollection: a 404 is one GET and no Metalink lookup;
// a collection still opens as "is a collection" through the Stat path.
func TestOpenNotFoundAndCollection(t *testing.T) {
	e := newEnv(t, Options{MetalinkHost: "fed:80"})
	e.startServer(t, dpm1, httpserv.Options{})
	e.startServer(t, "fed:80", httpserv.Options{
		Metalinks: func(string) *metalink.Metalink { return &metalink.Metalink{} },
	})
	ctx := context.Background()
	if _, err := e.client.Open(ctx, dpm1, "/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("open missing: %v", err)
	}
	if got, fed := e.srvs[dpm1].Requests(), e.srvs["fed:80"].Requests(); got != 1 || fed != 0 {
		t.Fatalf("open missing: %d requests, %d to the federation; want 1, 0", got, fed)
	}
	if err := e.client.Mkdir(ctx, dpm1, "/dir"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.client.Open(ctx, dpm1, "/dir"); err == nil || !strings.Contains(err.Error(), "is a collection") {
		t.Fatalf("open collection: %v", err)
	}
}

// TestFileRejectsBadOffsetsLocally: a negative ReadAt offset and vectored
// ranges ending past Size fail without a request.
func TestFileRejectsBadOffsetsLocally(t *testing.T) {
	for _, size := range []int{16, 200 << 10} {
		blob := randomBlob(size, 6)
		e, f := openEnv(t, blob, nil)
		n := int64(size)
		if _, err := f.ReadAt(make([]byte, 4), -2); err == nil {
			t.Fatalf("size %d: ReadAt at -2 succeeded", size)
		}
		past := []rangev.Range{{Off: n - 2, Len: 4}}
		if err := f.ReadVec(past, [][]byte{make([]byte, 4)}); !errors.Is(err, rangev.ErrInvalidRange) {
			t.Fatalf("size %d: ReadVec past the end: %v", size, err)
		}
		if err := <-f.ReadVecAsyncCtx(context.Background(), past, [][]byte{make([]byte, 4)}); !errors.Is(err, rangev.ErrInvalidRange) {
			t.Fatalf("size %d: ReadVecAsyncCtx past the end: %v", size, err)
		}
		if got := e.srvs[dpm1].Requests(); got != 1 {
			t.Fatalf("size %d: %d requests, want the open's only", size, got)
		}
	}
}

// TestFileCloseRacesReads: reads copying from the ends while Close runs
// either finish with the right bytes or report ErrFileClosed; the buffer
// goes back to the pool only after the last copy, so scribbling on pooled
// buffers after Close never shows in a read.
func TestFileCloseRacesReads(t *testing.T) {
	blob := randomBlob(200<<10, 7)
	_, f := openEnv(t, blob, nil)
	size := int64(len(blob))
	var wg sync.WaitGroup
	started := make(chan struct{}, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := make([]byte, endsHead)
			tail := make([]byte, 1000)
			for i := 0; ; i++ {
				if i == 1 {
					started <- struct{}{}
				}
				if _, err := f.ReadAt(p, 0); err != nil {
					if !errors.Is(err, ErrFileClosed) {
						t.Errorf("ReadAt: %v", err)
					}
					return
				}
				if !bytes.Equal(p, blob[:endsHead]) {
					t.Error("ReadAt copied the wrong bytes")
					return
				}
				if err := f.ReadVec([]rangev.Range{{Off: size - 1000, Len: 1000}}, [][]byte{tail}); err != nil {
					if !errors.Is(err, ErrFileClosed) {
						t.Errorf("ReadVec: %v", err)
					}
					return
				}
				if !bytes.Equal(tail, blob[size-1000:]) {
					t.Error("ReadVec copied the wrong bytes")
					return
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-started
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		b := bufpool.Get(endsHead + endsTail)
		for j := range b {
			b[j] = 0xAA
		}
		bufpool.Put(b)
	}
	wg.Wait()
	if err := f.Close(); !errors.Is(err, ErrFileClosed) {
		t.Fatalf("second Close = %v", err)
	}
}

func TestFileCloseSemantics(t *testing.T) {
	e := newEnv(t, Options{Strategy: StrategyNone})
	e.startServer(t, dpm1, httpserv.Options{})
	ctx := context.Background()

	// Read between the ends Open keeps, so the read goes to the wire.
	const at = 8 << 10
	e.stores[dpm1].Put("/f", bytes.Repeat([]byte("to be closed"), 10<<10))
	f, err := e.client.Open(ctx, dpm1, "/f")
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 4)
	if _, err := f.ReadAt(p, at); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("first Close = %v", err)
	}

	if _, err := f.ReadAt(p, 0); !errors.Is(err, ErrFileClosed) {
		t.Fatalf("ReadAt after Close = %v", err)
	}
	if _, err := f.Read(p); !errors.Is(err, ErrFileClosed) {
		t.Fatalf("Read after Close = %v", err)
	}
	if _, err := f.Seek(0, io.SeekStart); !errors.Is(err, ErrFileClosed) {
		t.Fatalf("Seek after Close = %v", err)
	}
	if err := f.ReadVec([]rangev.Range{{Off: 0, Len: 4}}, [][]byte{p}); !errors.Is(err, ErrFileClosed) {
		t.Fatalf("ReadVec after Close = %v", err)
	}
	if err := f.Close(); !errors.Is(err, ErrFileClosed) {
		t.Fatalf("second Close = %v", err)
	}
}

// TestConcurrentFileReadAt: one File serves concurrent ReadAt calls
// between its ends, each its own range GET, with every byte in place.
func TestConcurrentFileReadAt(t *testing.T) {
	const lo, span = 64 << 10, 64 << 10
	blob := randomBlob(256<<10, 14)
	_, f := openEnv(t, blob, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			p := make([]byte, 1500)
			for i := 0; i < 50; i++ {
				off := lo + rng.Int63n(span-int64(len(p)))
				n, err := f.ReadAt(p, off)
				if err != nil || n != len(p) {
					t.Errorf("read at %d: n=%d err=%v", off, n, err)
					return
				}
				if !bytes.Equal(p, blob[off:off+int64(len(p))]) {
					t.Errorf("corrupt read at %d", off)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}
