package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"

	"godavix/internal/digest"
	"godavix/internal/obs"
)

// ErrChecksumMismatch reports a failed end-to-end integrity check.
var ErrChecksumMismatch = errors.New("davix: checksum mismatch")

// ErrChecksumUnsupported reports a checksum whose algorithm the client does
// not implement. It surfaces only when Options.VerifyTransfers demands
// verification; opportunistic checks skip unknown algorithms silently.
var ErrChecksumUnsupported = errors.New("davix: unsupported checksum algorithm")

// ChecksumError is the concrete ErrChecksumMismatch: it names the resource,
// the algorithm, and the offending byte span — for a multi-stream transfer
// that is the chunk whose digest disagreed, narrowing a corrupt terabyte to
// one ChunkSize window.
type ChecksumError struct {
	// Path is the remote resource.
	Path string
	// Algo is the digest algorithm that disagreed.
	Algo string
	// Off and Length delimit the offending byte span [Off, Off+Length).
	Off, Length int64
	// Got and Want are the hex digests of the span: the client's and the
	// server's.
	Got, Want string
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("davix: checksum mismatch: %s: bytes [%d,%d): got %s:%s want %s:%s",
		e.Path, e.Off, e.Off+e.Length, e.Algo, e.Got, e.Algo, e.Want)
}

func (e *ChecksumError) Unwrap() error { return ErrChecksumMismatch }

// verifyChecksum holds a whole downloaded object, data, against want, the
// server's "algo:hex" checksum of it: a match counts the transfer verified,
// a mismatch fails it. Malformed values (non-hex payload, wrong digest
// length) always fail — a value that cannot be parsed must not pass
// verification. Unknown algorithms fail with ErrChecksumUnsupported rather
// than being skipped.
func (c *Client) verifyChecksum(data []byte, want, path string) error {
	cs, err := digest.Parse(want)
	if err != nil {
		if errors.Is(err, digest.ErrUnsupported) {
			return fmt.Errorf("%w: %s: %v", ErrChecksumUnsupported, path, err)
		}
		return fmt.Errorf("davix: %s: invalid checksum %q: %w", path, want, err)
	}
	h, err := digest.New(cs.Algo)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrChecksumUnsupported, path, err)
	}
	h.Write(data)
	if got := h.Sum(nil); !bytes.Equal(got, cs.Sum) {
		return c.mismatch(path, cs.Algo, 0, int64(len(data)), got, cs.Sum)
	}
	c.verified(obs.Down, path, cs.Algo)
	return nil
}

// verified counts a transfer of path whose whole-object digest under algo
// matched the server's: the one place Metrics.TransfersVerified moves.
func (c *Client) verified(dir obs.Direction, path string, algo digest.Algo) {
	c.metrics.transfersVerified.Add(1)
	c.opts.Trace.EmitVerified(dir, path, string(algo))
}

// mismatch counts a failed integrity check of path — the one place
// Metrics.ChecksumMismatches moves — and returns it as the ChecksumError
// naming algo and the byte span [off, off+length) whose digests, got by
// the client and want from the server, disagree. Every verdict goes
// through it, so each failed comparison counts exactly once.
func (c *Client) mismatch(path string, algo digest.Algo, off, length int64, got, want []byte) *ChecksumError {
	c.metrics.checksumMismatches.Add(1)
	return &ChecksumError{
		Path: path, Algo: string(algo), Off: off, Length: length,
		Got: hex.EncodeToString(got), Want: hex.EncodeToString(want),
	}
}

// mismatch32 is mismatch for 32-bit sums.
func (c *Client) mismatch32(path string, algo digest.Algo, off, length int64, got, want uint32) *ChecksumError {
	return c.mismatch(path, algo, off, length, binary.BigEndian.AppendUint32(nil, got), binary.BigEndian.AppendUint32(nil, want))
}
