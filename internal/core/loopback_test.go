package core

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"godavix/internal/obs"
	"godavix/internal/storage"
)

// TestLoopbackFileTransfer is the only test that moves a transfer over
// real TCP into and out of an *os.File: over loopback a 16 MiB object
// moves between the gateway and a file in 1 MiB chunks, each way, with
// verification off and on. Each row checks the delivered bytes
// ("content") and their accounting ("accounting"): the payload counters
// see every byte exactly once, a download's ChunkDone lengths sum to the
// size, TransfersVerified follows the configuration, and the transfer's
// wire bytes are the payload plus request or response heads, never a
// double charge.
func TestLoopbackFileTransfer(t *testing.T) {
	const size = 16 << 20
	blob := uploadBlob(size, 91)
	for _, tc := range []struct {
		name       string
		up, verify bool
	}{
		{"download", false, false},
		{"download_verified", false, true},
		{"upload", true, false},
		{"upload_verified", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var chunked atomic.Int64
			st := storage.NewMemStore()
			c, host := loopbackGateway(t, st, Options{
				Strategy: StrategyNone, ChunkSize: 1 << 20, MaxStreams: 4, VerifyTransfers: tc.verify,
				Trace: &obs.ClientTrace{
					ChunkDone: func(d obs.Direction, path string, idx int, off, ln int64, err error) {
						if d == obs.Down && err == nil {
							chunked.Add(ln)
						}
					},
				},
			})
			f, err := os.Create(filepath.Join(t.TempDir(), "f.dat"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()

			ctx := context.Background()
			var got []byte
			if tc.up {
				if _, err := f.Write(blob); err != nil {
					t.Fatal(err)
				}
				if _, err := f.Seek(0, io.SeekStart); err != nil {
					t.Fatal(err)
				}
				if err := c.PutReader(ctx, host, "/f", f, size); err != nil {
					t.Fatal(err)
				}
				got, _, err = st.Get("/f")
			} else {
				st.Put("/f", blob)
				n, derr := c.DownloadMultiStreamTo(ctx, host, "/f", f)
				if derr != nil || n != size {
					t.Fatalf("download: n=%d err=%v", n, derr)
				}
				got, err = os.ReadFile(f.Name())
			}
			t.Run("content", func(t *testing.T) {
				if err != nil || !bytes.Equal(got, blob) {
					t.Fatalf("delivered bytes differ from the source (err=%v)", err)
				}
			})
			t.Run("accounting", func(t *testing.T) {
				m := c.Metrics()
				payload, wire := m.PooledBytesDown, m.BytesDown
				if tc.up {
					payload, wire = m.PooledBytesUp, m.BytesUp
				}
				if payload != size {
					t.Errorf("payload counter %d B, want %d (each byte counted once)", payload, size)
				}
				verified := int64(0)
				if tc.verify {
					verified = 1
				}
				if m.TransfersVerified != verified {
					t.Errorf("TransfersVerified = %d, want %d", m.TransfersVerified, verified)
				}
				const headroom = 64 << 10 // heads of 16 chunk GETs and the size probe, or of one PUT
				if wire < size || wire > size+headroom {
					t.Errorf("wire bytes %d, want within [%d, %d]: under- or double-counted",
						wire, size, size+headroom)
				}
				if !tc.up && chunked.Load() != size {
					t.Errorf("ChunkDone lengths total %d B, want %d", chunked.Load(), size)
				}
			})
		})
	}
}
