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

// TestZeroCopyBytePlane runs the kernel byte path for real: the only test
// that does, since netsim pipes expose no descriptor to splice or sendfile.
// Over loopback TCP a 16 MiB object moves between the gateway and an
// *os.File in 1 MiB chunks, each way, with verification off and on. Each
// row checks the delivered bytes ("content") and their accounting
// ("byte_paths"). Every payload byte must be classified exactly once — the
// Kernel*/Pooled* counters and the TransferPath events each sum to the
// size, and a download's ChunkDone lengths too — and on the path the
// configuration dictates:
//   - an unverified download splices: the kernel moves most of the bytes
//     (a few per chunk arrive in the response reader's buffered prefix and
//     are correctly pooled);
//   - an unverified upload sendfiles every byte;
//   - verification tees every byte through the digest, so the kernel moves
//     none.
//
// A download's wire bytes are the payload plus response heads, on either
// path: never a double charge.
func TestZeroCopyBytePlane(t *testing.T) {
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
			dir := obs.Down
			if tc.up {
				dir = obs.Up
			}
			var traced, chunked atomic.Int64
			st := storage.NewMemStore()
			c, host := loopbackGateway(t, st, Options{
				Strategy: StrategyNone, ChunkSize: 1 << 20, MaxStreams: 4, VerifyTransfers: tc.verify,
				Trace: &obs.ClientTrace{
					TransferPath: func(d obs.Direction, path string, bp obs.BytePath, n int64) {
						if d == dir {
							traced.Add(n)
						}
					},
					ChunkDone: func(d obs.Direction, path string, idx int, off, ln int64, err error) {
						if d == dir && err == nil {
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
			t.Run("byte_paths", func(t *testing.T) {
				m := c.Metrics()
				kernel, pooled := m.KernelBytesDown, m.PooledBytesDown
				if tc.up {
					kernel, pooled = m.KernelBytesUp, m.PooledBytesUp
				}
				if kernel+pooled != size || traced.Load() != size {
					t.Fatalf("kernel %d + pooled %d B, TransferPath %d B: want both %d (each byte classified once)",
						kernel, pooled, traced.Load(), size)
				}
				switch {
				case tc.verify && kernel != 0:
					t.Errorf("kernel moved %d B under verification, want 0: the digest tee must see every byte", kernel)
				case !tc.verify && tc.up && pooled != 0:
					t.Errorf("pooled moved %d B of an unverified upload, want 0: sendfile takes the whole body", pooled)
				case !tc.verify && !tc.up && kernel < pooled:
					t.Errorf("splice did not dominate: kernel %d B < pooled %d B", kernel, pooled)
				}
				verified := int64(0)
				if tc.verify {
					verified = 1
				}
				if m.TransfersVerified != verified {
					t.Errorf("TransfersVerified = %d, want %d", m.TransfersVerified, verified)
				}
				if tc.up {
					return
				}
				if chunked.Load() != size {
					t.Errorf("ChunkDone lengths total %d B, want %d", chunked.Load(), size)
				}
				const headroom = 64 << 10 // response heads of 16 chunk GETs and the size probe
				if m.BytesDown < size || m.BytesDown > size+headroom {
					t.Errorf("BytesDown = %d, want within [%d, %d]: wire bytes under- or double-counted",
						m.BytesDown, size, size+headroom)
				}
			})
		})
	}
}
