package rootio

import (
	"encoding/binary"
	"errors"
	"math/bits"

	"godavix/internal/digest"
)

// The basket read path's zlib decoder (RFC 1950 framing around an RFC 1951
// deflate stream). A basket inflates in one pass straight into the buffer
// whose size the index gives, so a back-reference copies inside that
// buffer: there is no window ring and no second copy. Input bits sit in a
// 64-bit buffer refilled eight bytes at a time, and every Huffman code is
// decoded through a table built once per block — one lookup per symbol, and
// a second only for codes longer than the table's root bits (libdeflate's
// design).
//
// Validation mirrors compress/zlib and compress/flate: a bad header, a
// reserved block type, code-length counts past 286/30, over-subscribed or
// incomplete codes (a single 1-bit code excepted), a repeat with nothing to
// repeat or running past the lengths, litlen symbols 286/287 and distance
// symbols 30/31, a distance before the start of the output, a stored block's
// LEN/NLEN mismatch and a truncated stream are all errors; so are more or
// fewer bytes than the buffer holds and a wrong adler32.

// Table geometry: a primary table is indexed by the next *Bits input bits;
// longer codes continue in subtables behind it. The *Enough sizes bound
// primary plus subtables for any code the builder accepts (zlib's
// examples/enough.c: "enough 288 11 15" and "enough 32 8 15").
const (
	litlenBits   = 11
	distBits     = 8
	precodeBits  = 7
	litlenEnough = 2342
	distEnough   = 402
)

// A table entry is a uint32:
//
//	bits 0-7    input bits the entry consumes: the codeword length (past
//	            the root bits, in a subtable), plus a length's or a
//	            distance's extra bits; the root bits for a subtable pointer
//	bits 8-11   the codeword length, where the extra bits start; the index
//	            bits for a subtable pointer
//	bit 13      end of block
//	bit 14      subtable pointer
//	bit 15      exceptional: end of block, subtable pointer or invalid symbol
//	bits 16-30  literal byte, length or distance base, subtable start, or
//	            code-length symbol
//	bit 31      literal
const (
	entryEOB     = 1 << 13
	entrySub     = 1 << 14
	entryExc     = 1 << 15
	entryLiteral = 1 << 31
)

// litlenSyms and distSyms are every symbol's entry before its codeword
// length is added (RFC 1951 §3.2.5): value, flags and extra-bit count.
// precodeSyms are the code-length alphabet's.
var litlenSyms, distSyms, precodeSyms = symbolEntries()

func symbolEntries() (lit [288]uint32, dist [32]uint32, pre [19]uint32) {
	for s := range 256 {
		lit[s] = entryLiteral | uint32(s)<<16
	}
	lit[256] = entryExc | entryEOB
	base := uint32(3)
	for s := 257; s < 285; s++ {
		extra := uint32(max(0, (s-261)/4))
		lit[s] = base<<16 | extra
		base += 1 << extra
	}
	lit[285] = 258 << 16
	lit[286], lit[287] = entryExc, entryExc
	base = 1
	for s := range 30 {
		extra := uint32(max(0, (s-2)/2))
		dist[s] = base<<16 | extra
		base += 1 << extra
	}
	dist[30], dist[31] = entryExc, entryExc
	for s := range pre {
		pre[s] = uint32(s) << 16
	}
	return
}

// precodeOrder is the order code-length code lengths are sent in.
var precodeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// inflater is the decoder's reusable state: the tables of the block being
// decoded (≈ 11 KB, pooled by inflateBasket).
type inflater struct {
	litlen  [litlenEnough]uint32
	dist    [distEnough]uint32
	precode [1 << precodeBits]uint32
	lens    [288 + 32]uint8
}

// fixed holds the tables of the fixed Huffman code (RFC 1951 §3.2.6).
var fixed = func() *inflater {
	d := new(inflater)
	for s := range d.lens {
		switch {
		case s < 144, s >= 280 && s < 288:
			d.lens[s] = 8
		case s < 256:
			d.lens[s] = 9
		case s < 280:
			d.lens[s] = 7
		default:
			d.lens[s] = 5
		}
	}
	buildTable(d.litlen[:], litlenBits, d.lens[:288], litlenSyms[:])
	buildTable(d.dist[:], distBits, d.lens[288:], distSyms[:])
	return d
}()

var (
	errZlibHeader = errors.New("bad zlib header")
	errDictionary = errors.New("zlib preset dictionary")
	errBlockType  = errors.New("reserved block type")
	errCodes      = errors.New("invalid code lengths")
	errSymbol     = errors.New("invalid symbol")
	errDistance   = errors.New("distance before the start of the output")
	errStoredLen  = errors.New("stored block length mismatch")
	errTruncated  = errors.New("truncated stream")
	errLong       = errors.New("stream longer than the index claims")
	errShort      = errors.New("stream shorter than the index claims")
	errChecksum   = errors.New("adler32 mismatch")
	errTrailing   = errors.New("bytes after the adler32 trailer")
)

// inflate decodes the zlib stream blob, which must fill out exactly and end
// with its adler32 trailer.
func (d *inflater) inflate(out, blob []byte) error {
	if len(blob) < 2 {
		return errTruncated
	}
	cmf, flg := blob[0], blob[1]
	if cmf&0x0f != 8 || cmf>>4 > 7 || (uint(cmf)<<8|uint(flg))%31 != 0 {
		return errZlibHeader
	}
	if flg&0x20 != 0 {
		return errDictionary
	}
	br := bitReader{src: blob[2:]}
	op := 0
	for final := false; !final; {
		if br.nb < 3 {
			br.refill()
		}
		final = br.bb&1 != 0
		typ := br.bb >> 1 & 3
		br.bb >>= 3
		br.nb -= 3
		var err error
		switch typ {
		case 0:
			op, err = br.stored(out, op)
		case 1:
			op, err = fixed.huffman(&br, out, op)
		case 2:
			if err = d.readCodes(&br); err == nil {
				op, err = d.huffman(&br, out, op)
			}
		default:
			err = errBlockType
		}
		if err != nil {
			return err
		}
	}
	// The trailer starts at the byte after the stream's last bit.
	trailer := br.ip - int(br.nb>>3)
	switch {
	case trailer+4 > len(br.src):
		return errTruncated
	case op != len(out):
		return errShort
	case trailer+4 < len(br.src):
		return errTrailing
	case binary.BigEndian.Uint32(br.src[trailer:]) != digest.Sum32(digest.Adler32, out):
		return errChecksum
	}
	return nil
}

// bitReader reads src least significant bit first. Past the end of src the
// input reads as zeros; inflate rejects a stream that consumed any.
type bitReader struct {
	src []byte
	ip  int    // next byte of src to load into bb
	bb  uint64 // input bits, next one lowest; above nb, possibly a partial copy of src[ip]
	nb  uint   // bits of bb that are input
}

// refill tops bb up to 56-63 input bits.
func (br *bitReader) refill() { br.ip, br.bb, br.nb = refill(br.src, br.ip, br.bb, br.nb) }

func refill(src []byte, ip int, bb uint64, nb uint) (int, uint64, uint) {
	if ip+8 <= len(src) {
		bb |= binary.LittleEndian.Uint64(src[ip:]) << (nb & 63)
		return ip + int((63-nb)>>3), bb, nb | 56
	}
	for ; nb < 56; nb += 8 {
		if ip < len(src) {
			bb |= uint64(src[ip]) << nb
		}
		ip++
	}
	return ip, bb, nb
}

// bits consumes the next n ≤ 32 bits.
func (br *bitReader) bits(n uint) uint32 {
	if br.nb < n {
		br.refill()
	}
	v := uint32(br.bb & (1<<n - 1))
	br.bb >>= n
	br.nb -= n
	return v
}

// stored copies a stored block to out at op: the partial byte is dropped
// and the whole bytes still buffered go back to the input before LEN/NLEN.
func (br *bitReader) stored(out []byte, op int) (int, error) {
	br.ip -= int(br.nb >> 3)
	br.bb, br.nb = 0, 0
	if br.ip+4 > len(br.src) {
		return op, errTruncated
	}
	n := int(binary.LittleEndian.Uint16(br.src[br.ip:]))
	if binary.LittleEndian.Uint16(br.src[br.ip+2:]) != ^uint16(n) {
		return op, errStoredLen
	}
	br.ip += 4
	switch {
	case n > len(br.src)-br.ip:
		return op, errTruncated
	case n > len(out)-op:
		return op, errLong
	}
	copy(out[op:], br.src[br.ip:br.ip+n])
	br.ip += n
	return op + n, nil
}

// readCodes reads a dynamic block's code lengths and builds d.litlen and
// d.dist from them.
func (d *inflater) readCodes(br *bitReader) error {
	nlit := int(br.bits(5)) + 257
	ndist := int(br.bits(5)) + 1
	nclen := int(br.bits(4)) + 4
	if nlit > 286 || ndist > 30 {
		return errCodes
	}
	var plens [19]uint8
	for _, s := range precodeOrder[:nclen] {
		plens[s] = uint8(br.bits(3))
	}
	if !buildTable(d.precode[:], precodeBits, plens[:], precodeSyms[:]) {
		return errCodes
	}
	lens := d.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if br.nb < precodeBits {
			br.refill()
		}
		e := d.precode[br.bb&(1<<precodeBits-1)]
		if e&entryExc != 0 {
			return errCodes
		}
		br.bb >>= e & 63
		br.nb -= uint(e & 63)
		sym := uint8(e >> 16)
		if sym < 16 {
			lens[i] = sym
			i++
			continue
		}
		var rep int
		var v uint8
		switch sym {
		case 16:
			if i == 0 {
				return errCodes
			}
			rep, v = 3+int(br.bits(2)), lens[i-1]
		case 17:
			rep = 3 + int(br.bits(3))
		default:
			rep = 11 + int(br.bits(7))
		}
		if rep > len(lens)-i {
			return errCodes
		}
		for end := i + rep; i < end; i++ {
			lens[i] = v
		}
	}
	if !buildTable(d.litlen[:], litlenBits, lens[:nlit], litlenSyms[:]) ||
		!buildTable(d.dist[:], distBits, lens[nlit:], distSyms[:]) {
		return errCodes
	}
	return nil
}

// buildTable fills table, whose primary part is indexed by rootBits bits,
// for the canonical code with codeword lengths lens: symbol s decodes to
// syms[s] plus its codeword length. It reports false for a code that is
// over-subscribed, or incomplete with more than a single 1-bit codeword. An
// empty code is accepted, as compress/flate does: every lookup is invalid.
func buildTable(table []uint32, rootBits uint, lens []uint8, syms []uint32) bool {
	var count [16]int
	for _, l := range lens {
		count[l]++
	}
	left, n, maxLen := 1, 0, uint(0)
	for l := uint(1); l < 16; l++ {
		left = left<<1 - count[l]
		if left < 0 {
			return false
		}
		if count[l] > 0 {
			n, maxLen = n+count[l], l
		}
	}
	if left != 0 && (n > 1 || n == 1 && count[1] != 1) {
		return false
	}

	// Symbols sorted by codeword length, then by value: canonical order.
	var offs [16]int
	for l := 1; l < 15; l++ {
		offs[l+1] = offs[l] + count[l]
	}
	var sorted [288]uint16
	for s, l := range lens {
		if l != 0 {
			sorted[offs[l]] = uint16(s)
			offs[l]++
		}
	}

	// Codes are sent most significant bit first and the input is read
	// least significant bit first, so a table index is the reversed code,
	// and a code of length l owns every 1<<l-th root entry from there. The
	// root fills by increasing length, doubling its filled part first; what
	// no code owns is the invalid entry it starts from. Codes sharing their
	// first rootBits bits are adjacent in canonical order: each run gets a
	// subtable sized for its longest code.
	root := table[:1<<rootBits]
	root[0] = entryExc
	code, next, i := 0, len(root), 0
	prefix, sub := -1, root
	for l := uint(1); l <= max(maxLen, rootBits); l++ {
		if l <= rootBits {
			copy(root[1<<(l-1):1<<l], root)
		}
		for ; count[l] > 0; count[l]-- {
			e := syms[sorted[i]]
			i++
			rev := int(bits.Reverse16(uint16(code)) >> (16 - l))
			code++
			if l <= rootBits {
				root[rev] = e + (uint32(l)<<8 | uint32(l))
				continue
			}
			if p := rev & (len(root) - 1); p != prefix {
				// The subtable's index bits: enough for every code of
				// this length and up that still fits in its code space.
				sb, space := l-rootBits, 1<<(l-rootBits)
				for sb+rootBits < maxLen {
					if space -= count[sb+rootBits]; space <= 0 {
						break
					}
					sb++
					space <<= 1
				}
				root[p] = entryExc | entrySub | uint32(next)<<16 | uint32(sb)<<8 | uint32(rootBits)
				prefix, sub = p, table[next:next+1<<sb]
				next += 1 << sb
			}
			sl := l - rootBits
			e += uint32(sl)<<8 | uint32(sl)
			for j := rev >> rootBits; j < len(sub); j += 1 << sl {
				sub[j] = e
			}
		}
		code <<= 1
	}
	return true
}

// huffman decodes one Huffman-coded block through d's tables into out at
// op, up to and including its end-of-block symbol. The bit reader lives in
// locals for the block.
func (d *inflater) huffman(br *bitReader, out []byte, op int) (int, error) {
	src, ip, bb, nb := br.src, br.ip, br.bb, br.nb
	var err error
	for {
		// 56 bits cover a length and its distance: (15+5) + (15+13).
		ip, bb, nb = refill(src, ip, bb, nb)
		e := d.litlen[bb&(1<<litlenBits-1)]
		if e&entrySub != 0 {
			bb >>= litlenBits
			nb -= litlenBits
			e = d.litlen[e>>16+uint32(bb)&(1<<(e>>8&15)-1)]
		}
		if e&entryLiteral != 0 {
			// A run of literals, while bb holds a primary-table code (at
			// most litlenBits bits).
			for {
				if uint(op) >= uint(len(out)) {
					err = errLong
					goto done
				}
				out[op] = byte(e >> 16)
				op++
				bb >>= e & 63
				nb -= uint(e & 63)
				if nb < litlenBits {
					break
				}
				if e = d.litlen[bb&(1<<litlenBits-1)]; e&entryLiteral == 0 {
					break
				}
			}
			continue
		}
		if e&entryExc != 0 {
			if e&entryEOB == 0 {
				err = errSymbol
				goto done
			}
			bb >>= e & 63
			nb -= uint(e & 63)
			goto done
		}

		// A length, then its distance.
		saved := bb
		bb >>= e & 63
		nb -= uint(e & 63)
		length := int(e>>16) + int(saved&(1<<(e&63)-1)>>(e>>8&15))
		e = d.dist[bb&(1<<distBits-1)]
		if e&entryExc != 0 {
			if e&entrySub == 0 {
				err = errSymbol
				goto done
			}
			bb >>= distBits
			nb -= distBits
			if e = d.dist[e>>16+uint32(bb)&(1<<(e>>8&15)-1)]; e&entryExc != 0 {
				err = errSymbol
				goto done
			}
		}
		saved = bb
		bb >>= e & 63
		nb -= uint(e & 63)
		dist := int(e>>16) + int(saved&(1<<(e&63)-1)>>(e>>8&15))
		switch {
		case dist > op:
			err = errDistance
			goto done
		case length > len(out)-op:
			err = errLong
			goto done
		}
		// Copy forward: each pass doubles what an overlapping copy can
		// take from, and a copy from dist >= length is one pass.
		from, end := op-dist, op+length
		for op < end {
			op += copy(out[op:end], out[from:op])
		}
	}
done:
	br.ip, br.bb, br.nb = ip, bb, nb
	return op, err
}
