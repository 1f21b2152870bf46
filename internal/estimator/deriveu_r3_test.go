package estimator

import (
	"testing"
)

// TestDeriveUOrThreeInstances derives the symmetric sparse-first OR
// estimator for THREE instances — a construction the paper only carries
// out for r = 2 — and checks it has all the §2.1 properties: unbiased,
// nonnegative, and dominating OR^(HT), with lower variance than OR^(L) on
// sparse data.
func TestDeriveUOrThreeInstances(t *testing.T) {
	p := []float64{0.3, 0.3, 0.3}
	dom := [][]float64{{0, 1}, {0, 1}, {0, 1}}
	u, err := DeriveU(DiscreteProblem{P: p, Domains: dom, F: orOf, Less: SparseOrder}, PositivesBatch)
	if err != nil {
		t.Fatal(err)
	}
	if !u.Nonnegative() {
		t.Fatalf("r=3 OR^(U) negative: min %v", u.MinEstimate)
	}
	l, err := ORLUniform(3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	est := func(o ObliviousOutcome) float64 {
		x, err := u.Estimate(o)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	for mask := 0; mask < 8; mask++ {
		v := make([]float64, 3)
		for i := 0; i < 3; i++ {
			if mask&(1<<uint(i)) != 0 {
				v[i] = 1
			}
		}
		mean, varU := ObliviousMoments(p, v, est)
		if !approxEq(mean, orOf(v), 1e-7) {
			t.Errorf("v=%v: mean %v, want %v", v, mean, orOf(v))
		}
		_, varHT := ObliviousMoments(p, v, orHTOblivious)
		if varU > varHT+1e-9 {
			t.Errorf("v=%v: derived U variance %v above HT %v", v, varU, varHT)
		}
		_, varL := ObliviousMoments(p, v, l.Estimate)
		ones := positives(v)
		switch ones {
		case 1:
			// Sparse data: the sparse-first estimator must win.
			if varU > varL+1e-9 {
				t.Errorf("v=%v: U %v above L %v on sparse data", v, varU, varL)
			}
		case 3:
			// Dense data: L must win.
			if varL > varU+1e-9 {
				t.Errorf("v=%v: L %v above U %v on dense data", v, varL, varU)
			}
		}
	}
	// Symmetry across all 3 entries.
	a, err := u.Estimate(ObliviousOutcome{P: p, Sampled: []bool{true, false, false}, Values: []float64{1, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := u.Estimate(ObliviousOutcome{P: p, Sampled: []bool{false, false, true}, Values: []float64{0, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(a, b, 1e-8) {
		t.Errorf("r=3 derived U not symmetric: %v vs %v", a, b)
	}
}
