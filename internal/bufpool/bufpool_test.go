package bufpool

import (
	"sync"
	"testing"
)

func TestGetLenAndClassCap(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{1, 512},
		{512, 512},
		{513, 1024},
		{64 << 10, 64 << 10},
		{64<<10 + 1, 128 << 10},
		{1 << 22, 1 << 22},
	}
	for _, c := range cases {
		b := Get(c.n)
		if len(b) != c.n {
			t.Fatalf("Get(%d): len = %d", c.n, len(b))
		}
		if cap(b) != c.wantCap {
			t.Fatalf("Get(%d): cap = %d, want %d", c.n, cap(b), c.wantCap)
		}
		Put(b)
	}
}

func TestOversizeBypassesPool(t *testing.T) {
	n := (1 << 22) + 1
	b := Get(n)
	if len(b) != n || cap(b) != n {
		t.Fatalf("oversize Get: len=%d cap=%d", len(b), cap(b))
	}
	Put(b) // must not panic; silently dropped
}

func TestZeroGet(t *testing.T) {
	if b := Get(0); b != nil {
		t.Fatalf("Get(0) = %v", b)
	}
}

func TestRoundTripReuses(t *testing.T) {
	// Drain the class so the test owns its contents.
	ci := classFor(4096)
	for {
		select {
		case <-classes[ci]:
			continue
		default:
		}
		break
	}
	b := Get(4096)
	b[0] = 0xAB
	Put(b)
	b2 := Get(4096)
	if &b2[:1][0] != &b[:1][0] {
		t.Fatal("expected the pooled buffer back")
	}
}

func TestPutForeignCapDropped(t *testing.T) {
	ci := classFor(1000)
	before := len(classes[ci])
	Put(make([]byte, 1000)) // cap 1000: not a class size
	if len(classes[ci]) != before {
		t.Fatal("foreign-cap buffer must not be pooled")
	}
}

func TestConcurrentGetPut(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				n := 1 << (9 + (i+g)%8)
				b := Get(n)
				if len(b) != n {
					t.Errorf("len = %d, want %d", len(b), n)
					return
				}
				b[0] = byte(g)
				b[n-1] = byte(i)
				Put(b)
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkGetPut64K(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := Get(64 << 10)
		Put(buf)
	}
}
