package estimator

import (
	"math"
	"testing"
)

var binaryVectors2 = [][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}}

func TestORL2Unbiased(t *testing.T) {
	for _, p1 := range probGrid {
		for _, p2 := range probGrid {
			p := []float64{p1, p2}
			for _, v := range binaryVectors2 {
				mean, _ := ObliviousMoments(p, v, ORL2)
				if !approxEq(mean, orOf(v), 1e-12) {
					t.Errorf("ORL2 biased: p=%v v=%v mean=%v", p, v, mean)
				}
				mean, _ = ObliviousMoments(p, v, ORU2)
				if !approxEq(mean, orOf(v), 1e-12) {
					t.Errorf("ORU2 biased: p=%v v=%v mean=%v", p, v, mean)
				}
				mean, _ = ObliviousMoments(p, v, orHTOblivious)
				if !approxEq(mean, orOf(v), 1e-12) {
					t.Errorf("ORHT biased: p=%v v=%v mean=%v", p, v, mean)
				}
			}
		}
	}
}

// TestORVarianceClosedForms validates equations (23), (24) and the (1,0)
// variance expression of §4.3 against exact enumeration.
func TestORVarianceClosedForms(t *testing.T) {
	for _, p1 := range probGrid {
		for _, p2 := range probGrid {
			p := []float64{p1, p2}
			_, v11 := ObliviousMoments(p, []float64{1, 1}, ORL2)
			if want := VarORL11(p1, p2); !approxEq(v11, want, 1e-9) {
				t.Errorf("VarORL11(%v,%v) = %v, enumeration %v", p1, p2, want, v11)
			}
			_, v10 := ObliviousMoments(p, []float64{1, 0}, ORL2)
			if want := VarORL10(p1, p2); !approxEq(v10, want, 1e-9) {
				t.Errorf("VarORL10(%v,%v) = %v, enumeration %v", p1, p2, want, v10)
			}
			_, ht11 := ObliviousMoments(p, []float64{1, 1}, orHTOblivious)
			if want := VarORHT(p); !approxEq(ht11, want, 1e-9) {
				t.Errorf("VarORHT(%v) = %v, enumeration %v", p, want, ht11)
			}
		}
	}
}

// TestORAsymptotics checks the p→0 regime of §4.3: VAR[OR^HT] ≈ 1/p²,
// VAR[OR^L|(1,1)] ≈ 1/(2p), VAR[OR^L|(1,0)] ≈ 1/(4p²).
func TestORAsymptotics(t *testing.T) {
	p := 1e-4
	ps := []float64{p, p}
	if got := VarORHT(ps); !approxEq(got, 1/(p*p), 1e-3) {
		t.Errorf("VAR[OR^HT] = %v, want ≈ %v", got, 1/(p*p))
	}
	if got := VarORL11(p, p); !approxEq(got, 1/(2*p), 1e-3) {
		t.Errorf("VAR[OR^L|(1,1)] = %v, want ≈ %v", got, 1/(2*p))
	}
	if got := VarORL10(p, p); !approxEq(got, 1/(4*p*p), 1e-3) {
		t.Errorf("VAR[OR^L|(1,0)] = %v, want ≈ %v", got, 1/(4*p*p))
	}
	_, u10 := ObliviousMoments(ps, []float64{1, 0}, ORU2)
	if !approxEq(u10, 1/(4*p*p), 1e-3) {
		t.Errorf("VAR[OR^U|(1,0)] = %v, want ≈ %v", u10, 1/(4*p*p))
	}
	_, u11 := ObliviousMoments(ps, []float64{1, 1}, ORU2)
	if !approxEq(u11, 1/(2*p), 1e-2) {
		t.Errorf("VAR[OR^U|(1,1)] = %v, want ≈ %v", u11, 1/(2*p))
	}
}

// TestORDominance: OR^(L) and OR^(U) dominate OR^(HT) everywhere; OR^(L)
// has minimum variance on (1,1), OR^(U) on (1,0)/(0,1) (Figure 2).
func TestORDominance(t *testing.T) {
	for _, p1 := range probGrid {
		for _, p2 := range probGrid {
			p := []float64{p1, p2}
			for _, v := range binaryVectors2 {
				_, ht := ObliviousMoments(p, v, orHTOblivious)
				_, l := ObliviousMoments(p, v, ORL2)
				_, u := ObliviousMoments(p, v, ORU2)
				if l > ht+1e-9 || u > ht+1e-9 {
					t.Errorf("dominance violated: p=%v v=%v L=%v U=%v HT=%v", p, v, l, u, ht)
				}
			}
			_, l11 := ObliviousMoments(p, []float64{1, 1}, ORL2)
			_, u11 := ObliviousMoments(p, []float64{1, 1}, ORU2)
			if l11 > u11+1e-9 {
				t.Errorf("p=%v: L should win on (1,1): L=%v U=%v", p, l11, u11)
			}
			// OR^(U) beats OR^(L) on each individual "change" vector in the
			// symmetric setting of Figure 2; for asymmetric probabilities
			// the right statement is about the symmetric pair sum.
			_, l10 := ObliviousMoments(p, []float64{1, 0}, ORL2)
			_, u10 := ObliviousMoments(p, []float64{1, 0}, ORU2)
			if p1 == p2 && u10 > l10+1e-9 {
				t.Errorf("p=%v: U should win on (1,0): L=%v U=%v", p, l10, u10)
			}
			_, l01 := ObliviousMoments(p, []float64{0, 1}, ORL2)
			_, u01 := ObliviousMoments(p, []float64{0, 1}, ORU2)
			if u10+u01 > l10+l01+1e-9 {
				t.Errorf("p=%v: U should win on change pair: L=%v U=%v", p, l10+l01, u10+u01)
			}
		}
	}
}

// TestKnownSeedsMappingPreservesDistribution verifies the §5 claim that for
// binary domains, weighted sampling with known seeds is equivalent to
// weight-oblivious sampling: the mapped estimators remain unbiased with the
// same variance.
func TestKnownSeedsMappingPreservesDistribution(t *testing.T) {
	for _, p1 := range probGrid {
		for _, p2 := range probGrid {
			if p1 == 1 && p2 == 1 {
				continue
			}
			p := []float64{p1, p2}
			for _, v := range binaryVectors2 {
				for name, pair := range map[string][2]func(ObliviousOutcome) float64{
					"L":  {ORL2, ORL2},
					"U":  {ORU2, ORU2},
					"HT": {orHTOblivious, orHTOblivious},
				} {
					oblMean, oblVar := ObliviousMoments(p, v, pair[0])
					wMean, wVar := BinaryKnownSeedsMoments(p, v, func(o BinaryKnownSeedsOutcome) float64 {
						return pair[1](o.ToOblivious())
					})
					if !approxEq(oblMean, wMean, 1e-12) || !approxEq(oblVar, wVar, 1e-9) {
						t.Errorf("%s mapping mismatch: p=%v v=%v obl=(%v,%v) weighted=(%v,%v)",
							name, p, v, oblMean, oblVar, wMean, wVar)
					}
				}
			}
		}
	}
}

// TestORKnownSeedsTable locks the §5.1 outcome tables for OR^(L) and
// OR^(U) under weighted sampling with known seeds.
func TestORKnownSeedsTable(t *testing.T) {
	p1, p2 := 0.3, 0.6
	p := []float64{p1, p2}
	q := p1 + p2 - p1*p2
	mk := func(s1, s2 bool, u1, u2 float64) BinaryKnownSeedsOutcome {
		return BinaryKnownSeedsOutcome{P: p, U: []float64{u1, u2}, Sampled: []bool{s1, s2}}
	}
	cases := []struct {
		name  string
		o     BinaryKnownSeedsOutcome
		wantL float64
	}{
		{"empty, both seeds high", mk(false, false, 0.9, 0.95), 0},
		{"S={1}, u2 high", mk(true, false, 0.1, 0.95), 1 / q},
		{"S={2}, u1 high", mk(false, true, 0.9, 0.2), 1 / q},
		{"S={1,2}", mk(true, true, 0.1, 0.2), 1 / q},
		{"S={1}, u2 low", mk(true, false, 0.1, 0.1), 1 / (p1 * q)},
		{"S={2}, u1 low", mk(false, true, 0.1, 0.1), 1 / (p2 * q)},
		{"S=∅, u1 low (reveals v1=0)", mk(false, false, 0.1, 0.9), 0},
	}
	for _, c := range cases {
		if got := ORLKnownSeeds(c.o); !approxEq(got, c.wantL, 1e-12) {
			t.Errorf("OR^L %s = %v, want %v", c.name, got, c.wantL)
		}
	}
	cmax := math.Max(0, 1-p1-p2)
	ucases := []struct {
		name  string
		o     BinaryKnownSeedsOutcome
		wantU float64
	}{
		{"S={1}, u2 high", mk(true, false, 0.1, 0.95), 1 / (p1 * (1 + cmax))},
		{"S={2}, u1 high", mk(false, true, 0.9, 0.2), 1 / (p2 * (1 + cmax))},
		{"S={1}, u2 low (v2=0 known)", mk(true, false, 0.1, 0.1),
			(1 - (1-p2)/(1+cmax)) / (p1 * p2)},
		{"S={1,2}", mk(true, true, 0.1, 0.2),
			(1 - ((1-p2)+(1-p1))/(1+cmax)) / (p1 * p2)},
	}
	for _, c := range ucases {
		if got := ORUKnownSeeds(c.o); !approxEq(got, c.wantU, 1e-12) {
			t.Errorf("OR^U %s = %v, want %v", c.name, got, c.wantU)
		}
	}
}

// TestORLUniformMultiInstance: OR^(L) for r > 2 via the uniform max^(L)
// machinery stays unbiased on binary vectors.
func TestORLUniformMultiInstance(t *testing.T) {
	for r := 2; r <= 5; r++ {
		for _, p := range []float64{0.2, 0.5, 0.8} {
			e, err := ORLUniform(r, p)
			if err != nil {
				t.Fatal(err)
			}
			ps := make([]float64, r)
			for i := range ps {
				ps[i] = p
			}
			for mask := 0; mask < 1<<uint(r); mask++ {
				v := make([]float64, r)
				for i := 0; i < r; i++ {
					if mask&(1<<uint(i)) != 0 {
						v[i] = 1
					}
				}
				mean, _ := ObliviousMoments(ps, v, e.Estimate)
				if !approxEq(mean, orOf(v), 1e-9) {
					t.Errorf("r=%d p=%v v=%v: mean %v want %v", r, p, v, mean, orOf(v))
				}
			}
		}
	}
}
