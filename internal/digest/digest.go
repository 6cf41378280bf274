// Package digest implements the incremental-checksum machinery behind the
// client's inline transfer integrity: hash constructors for the algorithms
// davix-compatible storage speaks (adler32, crc32, crc32c, md5), strict
// "algo:hex" checksum-string parsing, and the combine math that merges
// per-chunk digests of a multi-stream transfer into the whole-object value
// without ever re-reading a byte.
//
// adler32 and the crc32 family are combinable: the digest of A||B is a pure
// function of digest(A), digest(B) and len(B), so chunks hashed out of order
// by concurrent workers roll up in O(chunks) time. md5 is not — it is only
// available on single-stream paths where bytes arrive in order.
package digest

import (
	"crypto/md5"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"hash/adler32"
	"hash/crc32"
	"sort"
	"strings"
)

// Algorithm names as they appear on the wire (X-Checksum headers, Metalink
// hashes, RFC 3230 Digest tokens). Compare case-insensitively.
const (
	Adler32 = "adler32"
	CRC32   = "crc32"
	CRC32C  = "crc32c"
	MD5     = "md5"
)

// ErrUnsupported reports a checksum whose algorithm the client does not
// implement. Callers that must verify treat it as fatal; opportunistic
// callers may ignore it.
var ErrUnsupported = errors.New("digest: unsupported checksum algorithm")

// ErrMalformed reports a checksum string that does not parse as algo:hex
// with the digest length the algorithm requires.
var ErrMalformed = errors.New("digest: malformed checksum")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// size returns the digest length in bytes for a supported algorithm.
func size(algo string) (int, bool) {
	switch algo {
	case Adler32, CRC32, CRC32C:
		return 4, true
	case MD5:
		return md5.Size, true
	}
	return 0, false
}

// Supported reports whether algo names an algorithm this package implements.
func Supported(algo string) bool {
	_, ok := size(strings.ToLower(algo))
	return ok
}

// Combinable reports whether per-chunk digests of algo can be merged into
// the whole-object digest (true for adler32 and the crc32 family).
func Combinable(algo string) bool {
	switch strings.ToLower(algo) {
	case Adler32, CRC32, CRC32C:
		return true
	}
	return false
}

// New returns a fresh incremental hash for algo, or ErrUnsupported.
func New(algo string) (hash.Hash, error) {
	switch strings.ToLower(algo) {
	case Adler32:
		return adler32.New(), nil
	case CRC32:
		return crc32.NewIEEE(), nil
	case CRC32C:
		return crc32.New(castagnoli), nil
	case MD5:
		return md5.New(), nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnsupported, algo)
}

// Checksum is a parsed algo:hex checksum value.
type Checksum struct {
	// Algo is the lower-cased algorithm name.
	Algo string
	// Sum is the decoded digest, length-checked for Algo.
	Sum []byte
}

// String renders the checksum back to wire form.
func (c Checksum) String() string {
	return c.Algo + ":" + hex.EncodeToString(c.Sum)
}

// Parse splits an "algo:hex" checksum string strictly: the algorithm must be
// known (else ErrUnsupported), the payload must be valid hex of exactly the
// algorithm's digest length (else ErrMalformed). Whitespace around the value
// is tolerated; nothing else is.
func Parse(s string) (Checksum, error) {
	s = strings.TrimSpace(s)
	algo, val, ok := strings.Cut(s, ":")
	if !ok || algo == "" || val == "" {
		return Checksum{}, fmt.Errorf("%w: %q", ErrMalformed, s)
	}
	algo = strings.ToLower(algo)
	n, known := size(algo)
	if !known {
		return Checksum{}, fmt.Errorf("%w: %q", ErrUnsupported, algo)
	}
	sum, err := hex.DecodeString(val)
	if err != nil {
		return Checksum{}, fmt.Errorf("%w: %q: %v", ErrMalformed, s, err)
	}
	if len(sum) != n {
		return Checksum{}, fmt.Errorf("%w: %q: %s digest must be %d bytes, got %d",
			ErrMalformed, s, algo, n, len(sum))
	}
	return Checksum{Algo: algo, Sum: sum}, nil
}

// FromDigestHeader scans an RFC 3230-style Digest header value
// ("adler32=03da0195, md5=...") for an entry under algo. Values are
// hex-encoded, the WLCG storage convention davix-era servers follow.
// A missing or malformed entry reports ok=false — the header is an
// optional server hint, not a hard contract like Parse's input.
func FromDigestHeader(v, algo string) (Checksum, bool) {
	n, known := size(algo)
	if !known {
		return Checksum{}, false
	}
	for _, part := range strings.Split(v, ",") {
		name, val, found := strings.Cut(part, "=")
		if !found || !strings.EqualFold(strings.TrimSpace(name), algo) {
			continue
		}
		sum, err := hex.DecodeString(strings.TrimSpace(val))
		if err != nil || len(sum) != n {
			return Checksum{}, false
		}
		return Checksum{Algo: algo, Sum: sum}, true
	}
	return Checksum{}, false
}

// Sum32 computes the 32-bit digest of b under algo (adler32/crc32/crc32c
// only; callers must not pass md5).
func Sum32(algo string, b []byte) uint32 {
	switch strings.ToLower(algo) {
	case Adler32:
		return adler32.Checksum(b)
	case CRC32:
		return crc32.ChecksumIEEE(b)
	case CRC32C:
		return crc32.Checksum(b, castagnoli)
	}
	panic("digest: Sum32 on non-32-bit algorithm " + algo)
}

const adlerMod = 65521

// CombineAdler32 returns adler32(A||B) given a = adler32(A), b = adler32(B)
// and the length of B, per the zlib adler32_combine construction:
// s1(A||B) = s1(A) + s1(B) - 1 and s2(A||B) = s2(A) + len(B)*s1(A) + s2(B)
// - len(B), everything mod 65521 (s1 of the empty string is 1, hence the
// -1 and -len(B) corrections).
func CombineAdler32(a, b uint32, lenB int64) uint32 {
	rem := uint32(lenB % adlerMod)
	s1 := (a&0xffff + b&0xffff + adlerMod - 1) % adlerMod
	s2 := ((a>>16)&0xffff + (rem*(a&0xffff))%adlerMod + (b>>16)&0xffff +
		2*adlerMod - rem) % adlerMod
	return s2<<16 | s1
}

// crc32Combine merges crc(A) and crc(B) into crc(A||B) for the given
// (reflected) polynomial, using the GF(2) matrix-squaring method from zlib:
// advance crcA through len(B) zero bytes, then xor with crcB.
func crc32Combine(crcA, crcB uint32, lenB int64, poly uint32) uint32 {
	if lenB <= 0 {
		return crcA // A||"" == A (crc of empty B is 0, no zero-advance)
	}
	var even, odd [32]uint32 // GF(2) operator matrices

	// odd = operator for one zero bit: a right shift with polynomial feedback.
	odd[0] = poly
	row := uint32(1)
	for n := 1; n < 32; n++ {
		odd[n] = row
		row <<= 1
	}
	// even = odd squared = operator for two zero bits.
	gf2MatrixSquare(&even, &odd)
	// odd = even squared = operator for four zero bits.
	gf2MatrixSquare(&odd, &even)

	// Apply len(B) zero BYTES to crcA: consume len2 bits 2 at a time,
	// squaring the operator each round (zlib crc32_combine).
	crc := crcA
	len2 := lenB
	for {
		gf2MatrixSquare(&even, &odd)
		if len2&1 != 0 {
			crc = gf2MatrixTimes(&even, crc)
		}
		len2 >>= 1
		if len2 == 0 {
			break
		}
		gf2MatrixSquare(&odd, &even)
		if len2&1 != 0 {
			crc = gf2MatrixTimes(&odd, crc)
		}
		len2 >>= 1
		if len2 == 0 {
			break
		}
	}
	return crc ^ crcB
}

func gf2MatrixTimes(mat *[32]uint32, vec uint32) uint32 {
	var sum uint32
	i := 0
	for vec != 0 {
		if vec&1 != 0 {
			sum ^= mat[i]
		}
		vec >>= 1
		i++
	}
	return sum
}

func gf2MatrixSquare(square, mat *[32]uint32) {
	for n := 0; n < 32; n++ {
		square[n] = gf2MatrixTimes(mat, mat[n])
	}
}

// CombineCRC32 returns crc32(A||B) for the IEEE polynomial.
func CombineCRC32(a, b uint32, lenB int64) uint32 {
	return crc32Combine(a, b, lenB, 0xedb88320)
}

// CombineCRC32C returns crc32c(A||B) for the Castagnoli polynomial.
func CombineCRC32C(a, b uint32, lenB int64) uint32 {
	return crc32Combine(a, b, lenB, 0x82f63b78)
}

// Combine merges digest a of A and digest b of B into the digest of A||B
// under algo. Only combinable algorithms are accepted.
func Combine(algo string, a, b uint32, lenB int64) uint32 {
	switch strings.ToLower(algo) {
	case Adler32:
		return CombineAdler32(a, b, lenB)
	case CRC32:
		return CombineCRC32(a, b, lenB)
	case CRC32C:
		return CombineCRC32C(a, b, lenB)
	}
	panic("digest: Combine on non-combinable algorithm " + algo)
}

// Rollup accumulates per-chunk 32-bit digests posted out of order by
// concurrent transfer workers and folds them, in chunk order, into the
// whole-object digest. Safe for concurrent Add calls is NOT promised —
// callers serialize (the transfer layer posts under its own lock or from a
// single goroutine after workers finish their chunk).
type Rollup struct {
	algo   string
	chunks []Span
}

// Span is one chunk's digest: the Sum of the N bytes at offset Off.
type Span struct {
	Off, N int64
	Sum    uint32
}

// NewRollup returns a rollup for a combinable algorithm, or ErrUnsupported
// when algo is unknown / non-combinable.
func NewRollup(algo string) (*Rollup, error) {
	algo = strings.ToLower(algo)
	if !Combinable(algo) {
		return nil, fmt.Errorf("%w: %q is not chunk-combinable", ErrUnsupported, algo)
	}
	return &Rollup{algo: algo}, nil
}

// Add records the digest of the n bytes at offset off.
func (r *Rollup) Add(off, n int64, sum uint32) {
	r.chunks = append(r.chunks, Span{Off: off, N: n, Sum: sum})
}

// Spans returns the chunks recorded so far — in offset order once Sum has
// run — so a whole-object mismatch can be narrowed to one of them. The
// slice is the rollup's own; callers must not modify it.
func (r *Rollup) Spans() []Span { return r.chunks }

// Sum folds the recorded chunks in offset order into the whole-object
// digest. It errors if the chunks do not tile [0, total) exactly — a gap or
// overlap means the transfer lost track of a span and any digest would lie.
func (r *Rollup) Sum(total int64) (uint32, error) {
	sort.Slice(r.chunks, func(i, j int) bool { return r.chunks[i].Off < r.chunks[j].Off })
	var (
		pos int64
		acc uint32
	)
	// Digest of the empty prefix.
	acc = Sum32(r.algo, nil)
	for _, c := range r.chunks {
		if c.Off != pos {
			return 0, fmt.Errorf("digest: chunk gap at byte %d (next chunk starts at %d)", pos, c.Off)
		}
		acc = Combine(r.algo, acc, c.Sum, c.N)
		pos += c.N
	}
	if pos != total {
		return 0, fmt.Errorf("digest: chunks cover %d of %d bytes", pos, total)
	}
	return acc, nil
}
