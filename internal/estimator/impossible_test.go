package estimator

import (
	"math"
	"testing"
	"testing/quick"
)

// TestUnknownSeedsORBoundary: the forced estimator is nonnegative exactly
// when p1 + p2 ≥ 1 (Theorem 6.1).
func TestUnknownSeedsORBoundary(t *testing.T) {
	cases := []struct {
		p1, p2   float64
		feasible bool
	}{
		{0.3, 0.3, false},
		{0.49, 0.49, false},
		{0.5, 0.5, true},
		{0.2, 0.9, true},
		{0.1, 0.1, false},
		{1, 1, true},
		{0.05, 0.9, false},
	}
	for _, c := range cases {
		s := SolveUnknownSeedsOR2(c.p1, c.p2)
		if s.Feasible != c.feasible {
			t.Errorf("p=(%v,%v): feasible=%v, want %v (EstBoth=%v)",
				c.p1, c.p2, s.Feasible, c.feasible, s.EstBoth)
		}
	}
}

// TestUnknownSeedsORUniqueUnbiased: the forced estimator is unbiased on all
// four binary data vectors; since each constraint pinned a unique value,
// any unbiased estimator must coincide with it — so infeasibility of this
// one proves Theorem 6.1.
func TestUnknownSeedsORUniqueUnbiased(t *testing.T) {
	f := func(a, b float64) bool {
		p1 := 0.05 + 0.95*frac(a)
		p2 := 0.05 + 0.95*frac(b)
		s := SolveUnknownSeedsOR2(p1, p2)
		for _, v := range []struct {
			v1, v2 bool
			want   float64
		}{{false, false, 0}, {true, false, 1}, {false, true, 1}, {true, true, 1}} {
			if !approxEq(s.Mean(p1, p2, v.v1, v.v2), v.want, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestUnknownSeedsFeasibleRegionMatchesKnownSeeds: when seeds are known the
// OR estimators exist for every p (contrast with the unknown-seed regime).
func TestUnknownSeedsFeasibleRegionMatchesKnownSeeds(t *testing.T) {
	p1, p2 := 0.2, 0.2 // infeasible without seeds
	if s := SolveUnknownSeedsOR2(p1, p2); s.Feasible {
		t.Fatal("expected infeasible")
	}
	// Known seeds: OR^(L) is unbiased and nonnegative at the same p.
	p := []float64{p1, p2}
	for _, v := range binaryVectors2 {
		mean, _ := BinaryKnownSeedsMoments(p, v, ORLKnownSeeds)
		if !approxEq(mean, orOf(v), 1e-12) {
			t.Errorf("known seeds OR^L biased at v=%v: %v", v, mean)
		}
	}
}

// TestUnknownSeedsEstBothExplodes documents the structural reason: as
// p → 0, the forced value on the both-sampled outcome tends to −∞ — the
// single-sampled outcomes over-contribute 2−p1−p2 > 1 to the expectation.
func TestUnknownSeedsEstBothExplodes(t *testing.T) {
	prev := 0.0
	for _, p := range []float64{0.4, 0.2, 0.1, 0.05} {
		s := SolveUnknownSeedsOR2(p, p)
		if s.EstBoth >= 0 {
			t.Fatalf("p=%v: expected negative EstBoth, got %v", p, s.EstBoth)
		}
		if s.EstBoth >= prev && prev != 0 {
			t.Errorf("p=%v: EstBoth %v not decreasing (prev %v)", p, s.EstBoth, prev)
		}
		prev = s.EstBoth
	}
	if s := SolveUnknownSeedsOR2(0.01, 0.01); s.EstBoth > -9000 {
		t.Errorf("EstBoth at p=0.01 = %v, expected ≈ −9800", s.EstBoth)
	}
	if s := SolveUnknownSeedsOR2(1e-9, 1e-9); !math.IsInf(s.EstBoth, 0) && s.EstBoth > -1e17 {
		t.Errorf("EstBoth at p=1e-9 = %v, expected ≈ −1e18", s.EstBoth)
	}
}

// Mean returns the expectation of the forced estimator on binary data
// (v1, v2) — used by tests to confirm it is the unique unbiased solution.
func (s UnknownSeedsOR2) Mean(p1, p2 float64, v1, v2 bool) float64 {
	q1, q2 := 0.0, 0.0
	if v1 {
		q1 = p1
	}
	if v2 {
		q2 = p2
	}
	return q1*q2*s.EstBoth + q1*(1-q2)*s.EstOne1 + (1-q1)*q2*s.EstOne2 + (1-q1)*(1-q2)*s.EstEmpty
}
