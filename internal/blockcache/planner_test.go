package blockcache

import (
	"reflect"
	"testing"
)

func TestStridePlannerArmsContiguousScanAtOnce(t *testing.T) {
	p := NewStridePlanner(3)

	// A scan starting at block 0 arms immediately, planning the next three
	// one-block reads.
	if got := p.Plan("k", 0, 0); !reflect.DeepEqual(got, []BlockRange{{1, 1}, {2, 1}, {3, 1}}) {
		t.Fatalf("first contiguous plan = %v", got)
	}
	// Continuing the scan keeps planning from the new frontier.
	if got := p.Plan("k", 1, 1); !reflect.DeepEqual(got, []BlockRange{{2, 1}, {3, 1}, {4, 1}}) {
		t.Fatalf("second contiguous plan = %v", got)
	}
	// A random jump is a stride seen once: nothing planned.
	if got := p.Plan("k", 7, 7); got != nil {
		t.Fatalf("jump planned %v", got)
	}
	// Resuming where the jump ended is contiguous again.
	if got := p.Plan("k", 8, 8); !reflect.DeepEqual(got, []BlockRange{{9, 1}, {10, 1}, {11, 1}}) {
		t.Fatalf("resumed plan = %v", got)
	}

	// Byte-contiguous reads that share a boundary block arm too.
	q := NewStridePlanner(2)
	q.Plan("s", 0, 1)
	if got := q.Plan("s", 1, 2); !reflect.DeepEqual(got, []BlockRange{{3, 2}, {5, 2}}) {
		t.Fatalf("overlapping contiguous plan = %v", got)
	}
	// A first read elsewhere than block 0 is not a scan yet.
	if got := q.Plan("fresh", 5, 5); got != nil {
		t.Fatalf("first read at block 5 planned %v", got)
	}
}

func TestStridePlannerLearnsSparsePattern(t *testing.T) {
	p := NewStridePlanner(2)

	// One observation away from block 0: no pattern yet.
	if got := p.Plan("k", 1, 2); got != nil {
		t.Fatalf("first read planned %v", got)
	}
	// Stride seen once: still not confident.
	if got := p.Plan("k", 5, 6); got != nil {
		t.Fatalf("single-streak planned %v", got)
	}
	// Same stride twice: predict the next two reads at that stride.
	if got := p.Plan("k", 9, 10); !reflect.DeepEqual(got, []BlockRange{{13, 2}, {17, 2}}) {
		t.Fatalf("stride plan = %v", got)
	}
	// A backward jump resets the pattern.
	if got := p.Plan("k", 5, 6); got != nil {
		t.Fatalf("backward jump planned %v", got)
	}

	// A stride scan that starts at block 0 still needs the stride twice:
	// the first read arms only the contiguous guess.
	q := NewStridePlanner(1)
	if got := q.Plan("s", 0, 0); !reflect.DeepEqual(got, []BlockRange{{1, 1}}) {
		t.Fatalf("first read at block 0 planned %v", got)
	}
	if got := q.Plan("s", 3, 3); got != nil {
		t.Fatalf("stride 3 seen once planned %v", got)
	}
	if got := q.Plan("s", 6, 6); !reflect.DeepEqual(got, []BlockRange{{9, 1}}) {
		t.Fatalf("stride 3 plan = %v", got)
	}
}
