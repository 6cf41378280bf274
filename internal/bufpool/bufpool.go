// Package bufpool provides a size-classed pool of byte buffers for the hot
// read paths. The paper's vectored reads ship hundreds of fragments per
// round trip; without pooling, every multipart part, single-part body, and
// scatter scratch buffer is a fresh allocation, and at high concurrency the
// allocator and GC become the bottleneck long before the network does.
//
// Buffers are grouped into power-of-two size classes. Each class keeps a
// bounded free list implemented as a buffered channel: Put on a full class
// simply drops the buffer (bounding pinned memory), and Get on an empty
// class allocates. Channel sends and receives of a []byte copy only the
// slice header, so the steady state is allocation-free without sync.Pool's
// per-Put boxing allocation.
//
// A request above the 4 MiB top class bypasses the pool: Get is a plain
// make, zeroing included, and Put drops the buffer. No hot path asks for
// one — transfers stream chunk bodies through 64 KiB buffers whatever the
// chunk size; only the pull-mode copy still stages whole chunks.
package bufpool

import "math/bits"

const (
	// minBits/maxBits delimit the pooled size classes: 512 B .. 4 MiB.
	// Requests outside the range fall through to plain make.
	minBits = 9
	maxBits = 22

	// classBudget bounds the bytes parked per class, so a burst of huge
	// buffers cannot pin unbounded memory.
	classBudget = 4 << 20

	// maxSlots caps the slot count for the small classes, where the byte
	// budget alone would allow thousands of entries.
	maxSlots = 256
)

var classes [maxBits - minBits + 1]chan []byte

func init() {
	for i := range classes {
		size := 1 << (minBits + i)
		slots := classBudget / size
		if slots > maxSlots {
			slots = maxSlots
		}
		if slots < 2 {
			slots = 2
		}
		classes[i] = make(chan []byte, slots)
	}
}

// classFor returns the class index whose buffers hold n bytes, or -1 when
// n is outside the pooled range.
func classFor(n int) int {
	if n <= 0 || n > 1<<maxBits {
		return -1
	}
	b := bits.Len(uint(n - 1)) // smallest power of two >= n
	if b < minBits {
		b = minBits
	}
	return b - minBits
}

// Get returns a buffer of length n. The buffer may come from the pool, so
// its contents are arbitrary; callers must fully overwrite the bytes they
// read.
func Get(n int) []byte {
	if n == 0 {
		return nil
	}
	ci := classFor(n)
	if ci < 0 {
		return make([]byte, n)
	}
	select {
	case b := <-classes[ci]:
		return b[:n]
	default:
		return make([]byte, n, 1<<(minBits+ci))
	}
}

// Put returns b to its size class for reuse. Buffers whose capacity is not
// an exact class size (allocated elsewhere, or re-sliced) are dropped, as
// are buffers arriving when the class free list is full. Callers must not
// retain any reference to b after Put.
func Put(b []byte) {
	c := cap(b)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	ci := classFor(c)
	if ci < 0 || 1<<(minBits+ci) != c {
		return
	}
	select {
	case classes[ci] <- b[:0:c]:
	default:
	}
}
