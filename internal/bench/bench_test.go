package bench

import "testing"

func TestStatsSample(t *testing.T) {
	s := &Sample{}
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	if s.Mean() != 2.5 || s.N() != 4 || s.Min() != 1 {
		t.Fatalf("mean=%v n=%d min=%v", s.Mean(), s.N(), s.Min())
	}
	if d := s.Stddev(); d < 1.29 || d > 1.30 {
		t.Fatalf("stddev = %v", d)
	}
	if Pct(2, 3) != "+50.0%" || Pct(0, 1) != "n/a" {
		t.Fatalf("pct: %s %s", Pct(2, 3), Pct(0, 1))
	}
}
