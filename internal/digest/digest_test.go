package digest

import (
	"bytes"
	"crypto/md5"
	"errors"
	"hash/adler32"
	"hash/crc32"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func testBuf(n int) []byte {
	rng := rand.New(rand.NewSource(int64(n) + 7))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestCombineMatchesWholeBuffer(t *testing.T) {
	data := testBuf(1 << 20)
	splits := [][]int{
		{0},                        // empty A
		{len(data)},                // empty B
		{1}, {7}, {65536}, {65521}, // around the adler modulus
		{len(data) / 2}, {len(data) - 1},
	}
	for _, algo := range []Algo{Adler32, CRC32, CRC32C} {
		for _, s := range splits {
			cut := s[0]
			a, b := data[:cut], data[cut:]
			want := Sum32(algo, data)
			got := Combine(algo, Sum32(algo, a), Sum32(algo, b), int64(len(b)))
			if got != want {
				t.Errorf("%s split %d: combine=%08x whole=%08x", algo, cut, got, want)
			}
		}
	}
}

func TestCombineManyChunks(t *testing.T) {
	data := testBuf(777777)
	for _, algo := range []Algo{Adler32, CRC32, CRC32C} {
		r, err := NewRollup(algo)
		if err != nil {
			t.Fatal(err)
		}
		// Uneven chunking, added out of order.
		type span struct{ off, n int64 }
		var spans []span
		for off := int64(0); off < int64(len(data)); {
			n := int64(100000)
			if off+n > int64(len(data)) {
				n = int64(len(data)) - off
			}
			spans = append(spans, span{off, n})
			off += n
		}
		rand.Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })
		for _, sp := range spans {
			r.Add(sp.off, sp.n, Sum32(algo, data[sp.off:sp.off+sp.n]))
		}
		got, err := r.Sum(int64(len(data)))
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if want := Sum32(algo, data); got != want {
			t.Errorf("%s: rollup=%08x whole=%08x", algo, got, want)
		}
	}
}

func TestRollupDetectsGapsAndOverlaps(t *testing.T) {
	r, _ := NewRollup(Adler32)
	r.Add(0, 10, 1)
	r.Add(20, 10, 1) // gap at 10
	if _, err := r.Sum(30); err == nil {
		t.Error("gap not detected")
	}
	r2, _ := NewRollup(Adler32)
	r2.Add(0, 10, 1)
	if _, err := r2.Sum(20); err == nil {
		t.Error("short coverage not detected")
	}
}

func TestStdlibAgreement(t *testing.T) {
	data := testBuf(12345)
	if Sum32(Adler32, data) != adler32.Checksum(data) {
		t.Error("adler32 disagrees with stdlib")
	}
	if Sum32(CRC32, data) != crc32.ChecksumIEEE(data) {
		t.Error("crc32 disagrees with stdlib")
	}
	if Sum32(CRC32C, data) != crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli)) {
		t.Error("crc32c disagrees with stdlib")
	}
}

func TestParseStrict(t *testing.T) {
	good := []string{
		"adler32:00f8018d",
		"ADLER32:00F8018D",
		" crc32:deadbeef ",
		"crc32c:00000000",
		"md5:d41d8cd98f00b204e9800998ecf8427e",
	}
	for _, s := range good {
		if _, err := Parse(s); err != nil {
			t.Errorf("Parse(%q) = %v, want nil", s, err)
		}
	}
	malformed := []string{
		"",
		"adler32",            // no colon
		"adler32:",           // empty payload
		":deadbeef",          // empty algo
		"adler32:xyzw1234",   // non-hex
		"adler32:abcd",       // too short
		"adler32:0011223344", // too long
		"md5:deadbeef",       // md5 must be 16 bytes
	}
	for _, s := range malformed {
		if _, err := Parse(s); !errors.Is(err, ErrMalformed) {
			t.Errorf("Parse(%q) = %v, want ErrMalformed", s, err)
		}
	}
	if _, err := Parse("sha256:" + "00"[0:2] + "deadbeef"); !errors.Is(err, ErrUnsupported) {
		t.Errorf("unknown algo: got %v, want ErrUnsupported", err)
	}
}

func TestNewHashes(t *testing.T) {
	data := testBuf(999)
	for _, algo := range []Algo{Adler32, CRC32, CRC32C, MD5} {
		h, err := New(algo)
		if err != nil {
			t.Fatal(err)
		}
		// Feed in two writes to exercise incrementality.
		h.Write(data[:100])
		h.Write(data[100:])
		switch algo {
		case MD5:
			want := md5.Sum(data)
			if !bytes.Equal(h.Sum(nil), want[:]) {
				t.Error("md5 incremental mismatch")
			}
		default:
			var whole [4]byte
			w := Sum32(algo, data)
			whole[0], whole[1], whole[2], whole[3] = byte(w>>24), byte(w>>16), byte(w>>8), byte(w)
			if !bytes.Equal(h.Sum(nil), whole[:]) {
				t.Errorf("%s incremental mismatch", algo)
			}
		}
	}
	if _, err := New("sha1"); !errors.Is(err, ErrUnsupported) {
		t.Errorf("New(sha1) = %v, want ErrUnsupported", err)
	}
}

func TestCombinable(t *testing.T) {
	if !Combinable("adler32") || !Combinable("CRC32") || !Combinable("crc32c") {
		t.Error("32-bit algos must be combinable")
	}
	if Combinable("md5") || Combinable("sha256") {
		t.Error("md5/sha256 must not be combinable")
	}
	if _, err := NewRollup("md5"); err == nil {
		t.Error("NewRollup(md5) must fail")
	}
}

// negotiateTable is the Want-Digest table, shared with FuzzWantDigest as
// its seed corpus.
var negotiateTable = []struct {
	want string
	algo Algo
}{
	{"", ""},
	{"crc32c", CRC32C},
	{Preference, CRC32C},
	{"adler32;q=0, crc32c", CRC32C},
	{"md5;q=0.1, adler32", Adler32},
	{"crc32c;q=0.4, adler32;q=0.5", Adler32},
	{"adler32;q=0.5, crc32c;q=0.500", Adler32},     // a tie goes to list order
	{" ADLER32 ;\tQ=0.9 , crc32c;q=0.9 ", Adler32}, // case and whitespace
	{"sha-256, adler32;q=0.2", Adler32},            // unsupported names skipped
	{"crc32c;q=1.0001, md5", MD5},                  // a malformed weight skips its entry
	{"crc32c;q=-1, crc32c;q=, crc32;q=1.", CRC32},
	{"crc32c;q=0.9, crc32c;q=0", ""}, // refused anywhere is refused
	{"crc32c;q=0.000", ""},
	{"adler32;q=1.000;foo=bar", Adler32}, // other parameters are ignored
	{",, ;;, md5", MD5},
	{"sha-256", ""},
}

func TestNegotiate(t *testing.T) {
	for _, c := range negotiateTable {
		if got := Negotiate(c.want, Supported); got != c.algo {
			t.Errorf("Negotiate(%q) = %q, want %q", c.want, got, c.algo)
		}
	}
	// The gateway's PUT side can only sum combinable algorithms.
	if got := Negotiate("md5, adler32;q=0.5", Combinable); got != Adler32 {
		t.Errorf("Negotiate among combinable = %q, want adler32", got)
	}
	// Preference and Offered say the same thing.
	if got := Negotiate(Preference+", "+string(Offered[0])+";q=0", Supported); got != Offered[1] {
		t.Errorf("Preference without its first choice = %q, want %q", got, Offered[1])
	}
}

// qvalue is RFC 7231's weight grammar, the oracle for parseQ.
var qvalue = regexp.MustCompile(`^(0(\.[0-9]{0,3})?|1(\.0{0,3})?)$`)

// wantEntries splits a Want-Digest value the slow way: every entry with a
// well-formed weight (or none), as its lower-cased name and weight.
func wantEntries(s string) (names []Algo, qs []float64) {
	for _, entry := range strings.Split(s, ",") {
		parts := strings.Split(entry, ";")
		q, ok := 1.0, true
		for _, p := range parts[1:] {
			k, v, _ := strings.Cut(p, "=")
			if ok && strings.EqualFold(strings.TrimSpace(k), "q") {
				v = strings.TrimSpace(v)
				q, _ = strconv.ParseFloat(v, 64)
				ok = qvalue.MatchString(v)
			}
		}
		if ok {
			names = append(names, Algo(strings.ToLower(strings.TrimSpace(parts[0]))))
			qs = append(qs, q)
		}
	}
	return names, qs
}

// FuzzWantDigest holds Negotiate to the RFC's selection rules against a
// regexp-and-ParseFloat reading of the same header.
func FuzzWantDigest(f *testing.F) {
	for _, c := range negotiateTable {
		f.Add(c.want)
	}
	for _, s := range []string{"crc32c;q=0", "crc32c;q=0.000", "adler32;q=1", "adler32;q=1.000",
		"crc32c;q=1.0001", "crc32c;q=-1", "crc32c;q=", "crc32c;;", ",,,", ";q=0", "md5;q=0.2, md5;q=0.9, adler32;q=0.5",
		strings.Repeat("adler32;q=0.001, ", 240) + "crc32c;q=0.002"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := Negotiate(s, Supported)
		if got != "" && (!Supported(got) || got != lower(got)) {
			t.Fatalf("Negotiate(%q) = %q: not a supported canonical name", s, got)
		}
		names, qs := wantEntries(s)
		refused := map[Algo]bool{}
		gotQ := 0.0
		for i, a := range names {
			if qs[i] == 0 {
				refused[a] = true
			}
			if a == got {
				gotQ = max(gotQ, qs[i])
			}
		}
		if got != "" && refused[got] {
			t.Fatalf("Negotiate(%q) = %q, which the header refuses with q=0", s, got)
		}
		for i, a := range names {
			if Supported(a) && !refused[a] && qs[i] > 0 && (got == "" || qs[i] > gotQ) {
				t.Fatalf("Negotiate(%q) = %q (q=%v), but %q is acceptable at q=%v", s, got, gotQ, a, qs[i])
			}
		}
		if up := asciiUpper(s); Negotiate(up, Supported) != got {
			t.Fatalf("Negotiate(%q) = %q, but the upper-cased header gets %q", s, got, Negotiate(up, Supported))
		}
		spaced := " \t" + strings.NewReplacer(",", " , ", ";", "\t; ", "=", " =\t").Replace(s) + " "
		if Negotiate(spaced, Supported) != got {
			t.Fatalf("Negotiate(%q) = %q, but with whitespace around every delimiter %q", s, got, Negotiate(spaced, Supported))
		}
	})
}

// asciiUpper upper-cases the ASCII letters of s and nothing else.
func asciiUpper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// TestNegotiationAllocatesNothing: the gateway negotiates on every request
// that carries Want-Digest, and the client scans every chunk response for a
// Digest it usually does not carry; neither may cost an allocation.
func TestNegotiationAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation count: CI runs it without -race, in the alloc budgets step")
	}
	if n := testing.AllocsPerRun(100, func() { Negotiate(Preference+", md5;q=0", Supported) }); n != 0 {
		t.Errorf("Negotiate: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { FromDigestHeader("", CRC32C) }); n != 0 {
		t.Errorf("FromDigestHeader of no header: %v allocations, want 0", n)
	}
}
