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
//
// Which algorithm a transfer uses is negotiated once, with RFC 3230
// Want-Digest: the client offers Preference, the server answers with
// Negotiate's pick, and the value then flows through every sum, rollup and
// comparison of that transfer.
package digest

import (
	"crypto/md5"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"hash/adler32"
	"hash/crc32"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Algo names a checksum algorithm as it appears on the wire (X-Checksum
// headers, Metalink hashes, RFC 3230 Digest tokens). Functions taking one
// compare case-insensitively.
type Algo string

// The algorithms this package implements.
const (
	Adler32 Algo = "adler32"
	CRC32   Algo = "crc32"
	CRC32C  Algo = "crc32c"
	MD5     Algo = "md5"
)

// Default is the algorithm used wherever none is negotiated: crc32c, which
// hashes at hardware speed.
const Default = CRC32C

// Preference is the Want-Digest value the client sends: Default, and
// adler32 at half weight for peers (DPM, dCache) that offer nothing else.
const Preference = "crc32c, adler32;q=0.5"

// Offered is Preference as a list, best first.
var Offered = [...]Algo{Default, Adler32}

// ErrUnsupported reports a checksum whose algorithm the client does not
// implement. Callers that must verify treat it as fatal; opportunistic
// callers may ignore it.
var ErrUnsupported = errors.New("digest: unsupported checksum algorithm")

// ErrMalformed reports a checksum string that does not parse as algo:hex
// with the digest length the algorithm requires.
var ErrMalformed = errors.New("digest: malformed checksum")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// size returns the digest length in bytes for a supported algorithm.
func size(algo Algo) (int, bool) {
	switch algo {
	case Adler32, CRC32, CRC32C:
		return 4, true
	case MD5:
		return md5.Size, true
	}
	return 0, false
}

// Supported reports whether algo names an algorithm this package implements.
func Supported(algo Algo) bool {
	_, ok := size(lower(algo))
	return ok
}

func lower(algo Algo) Algo { return Algo(strings.ToLower(string(algo))) }

// Combinable reports whether per-chunk digests of algo can be merged into
// the whole-object digest (true for adler32 and the crc32 family).
func Combinable(algo Algo) bool {
	n, ok := size(lower(algo))
	return ok && n == 4
}

// New returns a fresh incremental hash for algo, or ErrUnsupported.
func New(algo Algo) (hash.Hash, error) {
	switch lower(algo) {
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

// New32 returns a fresh incremental hash for a 32-bit algo, nil for any
// other.
func New32(algo Algo) hash.Hash32 {
	h, _ := New(algo)
	h32, _ := h.(hash.Hash32)
	return h32
}

// Checksum is a parsed algo:hex checksum value.
type Checksum struct {
	// Algo is the lower-cased algorithm name.
	Algo Algo
	// Sum is the decoded digest, length-checked for Algo.
	Sum []byte
}

// String renders the checksum back to wire form.
func (c Checksum) String() string {
	return string(c.Algo) + ":" + hex.EncodeToString(c.Sum)
}

// Format32 renders a 32-bit sum in checksum-string form ("crc32c:0a1b2c3d").
func Format32(algo Algo, sum uint32) string {
	return Checksum{algo, binary.BigEndian.AppendUint32(nil, sum)}.String()
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
	a := lower(Algo(algo))
	n, known := size(a)
	if !known {
		return Checksum{}, fmt.Errorf("%w: %q", ErrUnsupported, a)
	}
	sum, err := hex.DecodeString(val)
	if err != nil {
		return Checksum{}, fmt.Errorf("%w: %q: %v", ErrMalformed, s, err)
	}
	if len(sum) != n {
		return Checksum{}, fmt.Errorf("%w: %q: %s digest must be %d bytes, got %d",
			ErrMalformed, s, algo, n, len(sum))
	}
	return Checksum{Algo: a, Sum: sum}, nil
}

// FromDigestHeader scans an RFC 3230-style Digest header value
// ("adler32=03da0195, md5=...") for an entry under algo, or — with algo ""
// — for the first entry under any algorithm this package implements: the
// one the server chose to name. Values are hex-encoded, the WLCG storage
// convention davix-era servers follow; an entry in any other form (RFC
// 3230's base64 md5, a value of the wrong length) is skipped and the scan
// goes on, so a base64 md5 ahead of a hex adler32 does not hide it. No
// usable entry reports ok=false — the header is an optional server hint,
// not a hard contract like Parse's input.
func FromDigestHeader(v string, algo Algo) (Checksum, bool) {
	for v != "" {
		var part string
		part, v, _ = strings.Cut(v, ",")
		name, val, found := strings.Cut(part, "=")
		a := lower(Algo(strings.TrimSpace(name)))
		n, known := size(a)
		if !found || !known || algo != "" && a != lower(algo) {
			continue
		}
		if sum, err := hex.DecodeString(strings.TrimSpace(val)); err == nil && len(sum) == n {
			return Checksum{Algo: a, Sum: sum}, true
		}
	}
	return Checksum{}, false
}

// Negotiate answers a Want-Digest header value (RFC 3230 §4.3.1): a comma
// list of algorithms, each with an optional RFC 7231 ";q=" weight (0 to 1,
// at most three decimals; default 1). It returns the algorithm of highest
// weight among those can accepts — ties go to the entry listed first — or
// "" when none is acceptable. q=0 means "not acceptable": an algorithm listed
// with it anywhere is never chosen. Names and parameter names are
// case-insensitive, whitespace around every token is ignored, and an entry
// whose weight does not parse is skipped.
func Negotiate(want string, can func(Algo) bool) Algo {
	var buf [4]Algo
	refused := buf[:0]
	eachWeight(want, func(a Algo, q int) {
		if q == 0 && can(a) && !slices.Contains(refused, a) {
			refused = append(refused, a)
		}
	})
	var best Algo
	bestQ := 0
	eachWeight(want, func(a Algo, q int) {
		if q > bestQ && can(a) && !slices.Contains(refused, a) {
			best, bestQ = a, q
		}
	})
	return best
}

// eachWeight calls f with every entry of a Want-Digest value whose weight
// parses: its lower-cased algorithm name and its q in thousandths.
func eachWeight(want string, f func(Algo, int)) {
	for want != "" {
		var entry, params string
		entry, want, _ = strings.Cut(want, ",")
		entry, params, _ = strings.Cut(entry, ";")
		q := 1000
		for params != "" && q >= 0 {
			var param string
			param, params, _ = strings.Cut(params, ";")
			if k, v, _ := strings.Cut(param, "="); strings.EqualFold(strings.TrimSpace(k), "q") {
				q = parseQ(strings.TrimSpace(v))
			}
		}
		if q >= 0 {
			f(lower(Algo(strings.TrimSpace(entry))), q)
		}
	}
}

// parseQ parses an RFC 7231 qvalue — "0", "1", "0.5", "1.000" — into
// thousandths, or -1 when it is not one.
func parseQ(v string) int {
	whole, frac, _ := strings.Cut(v, ".")
	q, err := strconv.ParseUint(whole+(frac + "000")[:3], 10, 11)
	if err != nil || len(whole) != 1 || len(frac) > 3 || q > 1000 {
		return -1
	}
	return int(q)
}

// Sum32 computes the 32-bit digest of b under algo (adler32/crc32/crc32c
// only; callers must not pass md5).
func Sum32(algo Algo, b []byte) uint32 {
	switch lower(algo) {
	case Adler32:
		return adler32.Checksum(b)
	case CRC32:
		return crc32.ChecksumIEEE(b)
	case CRC32C:
		return crc32.Checksum(b, castagnoli)
	}
	panic("digest: Sum32 on non-32-bit algorithm " + string(algo))
}

const adlerMod = 65521

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

// Combine merges digest a of A and digest b of B into the digest of A||B
// under algo. Only combinable algorithms are accepted.
//
// adler32 follows the zlib adler32_combine construction: s1(A||B) = s1(A) +
// s1(B) - 1 and s2(A||B) = s2(A) + len(B)*s1(A) + s2(B) - len(B),
// everything mod 65521 (s1 of the empty string is 1, hence the -1 and
// -len(B) corrections). The crc32 family advances crc(A) through len(B)
// zero bytes under its (reflected) polynomial and xors in crc(B).
func Combine(algo Algo, a, b uint32, lenB int64) uint32 {
	switch lower(algo) {
	case Adler32:
		rem := uint32(lenB % adlerMod)
		s1 := (a&0xffff + b&0xffff + adlerMod - 1) % adlerMod
		s2 := ((a>>16)&0xffff + (rem*(a&0xffff))%adlerMod + (b>>16)&0xffff +
			2*adlerMod - rem) % adlerMod
		return s2<<16 | s1
	case CRC32:
		return crc32Combine(a, b, lenB, 0xedb88320) // IEEE
	case CRC32C:
		return crc32Combine(a, b, lenB, 0x82f63b78) // Castagnoli
	}
	panic("digest: Combine on non-combinable algorithm " + string(algo))
}

// Rollup accumulates per-chunk 32-bit digests posted out of order by
// concurrent transfer workers and folds them, in chunk order, into the
// whole-object digest. Safe for concurrent Add calls is NOT promised —
// callers serialize (the transfer layer posts under its own lock or from a
// single goroutine after workers finish their chunk).
type Rollup struct {
	algo   Algo
	chunks []Span
}

// Span is one chunk's digest: the Sum of the N bytes at offset Off.
type Span struct {
	Off, N int64
	Sum    uint32
}

// NewRollup returns a rollup for a combinable algorithm, or ErrUnsupported
// when algo is unknown / non-combinable.
func NewRollup(algo Algo) (*Rollup, error) {
	algo = lower(algo)
	if !Combinable(algo) {
		return nil, fmt.Errorf("%w: %q is not chunk-combinable", ErrUnsupported, algo)
	}
	return &Rollup{algo: algo}, nil
}

// Algo reports the algorithm the rollup combines.
func (r *Rollup) Algo() Algo { return r.algo }

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
