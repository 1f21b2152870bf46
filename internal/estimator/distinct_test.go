package estimator

import (
	"math"
	"testing"

	"repro/internal/xhash"
)

func TestCategorize(t *testing.T) {
	p1, p2 := 0.4, 0.6
	cases := []struct {
		inS1, inS2 bool
		u1, u2     float64
		want       Category
	}{
		{true, true, 0.1, 0.2, cat11},
		{true, false, 0.1, 0.9, cat1Q}, // u2 > p2: membership 2 unknown
		{true, false, 0.1, 0.3, cat10}, // u2 ≤ p2: v2 revealed 0
		{false, true, 0.9, 0.2, catQ1}, // u1 > p1
		{false, true, 0.3, 0.2, cat01}, // u1 ≤ p1
		{false, false, 0.9, 0.9, catNone},
		{false, false, 0.1, 0.1, catNone},
	}
	for _, c := range cases {
		if got := Categorize(c.inS1, c.inS2, c.u1, c.u2, p1, p2); got != c.want {
			t.Errorf("Categorize(%v,%v,%v,%v) = %v, want %v", c.inS1, c.inS2, c.u1, c.u2, got, c.want)
		}
	}
}

// TestDistinctEstimatesMatchPerKeyOR: the §8.1 closed forms are the sums
// of the per-key OR^(HT) and OR^(L) estimators.
func TestDistinctEstimatesMatchPerKeyOR(t *testing.T) {
	p1, p2 := 0.3, 0.7
	e := DistinctEstimator{P1: p1, P2: p2}
	p := []float64{p1, p2}
	low := []float64{p1 / 2, p2 / 2}
	outcomes := map[Category]BinaryKnownSeedsOutcome{
		cat1Q: {P: p, U: []float64{p1 / 2, (1 + p2) / 2}, Sampled: []bool{true, false}},
		catQ1: {P: p, U: []float64{(1 + p1) / 2, p2 / 2}, Sampled: []bool{false, true}},
		cat11: {P: p, U: low, Sampled: []bool{true, true}},
		cat10: {P: p, U: low, Sampled: []bool{true, false}},
		cat01: {P: p, U: low, Sampled: []bool{false, true}},
	}
	for cat, o := range outcomes {
		var c DistinctCounts
		c.Add(cat)
		if got, want := e.HT(c), ORHTKnownSeeds(o); math.Abs(got-want) > 1e-12 {
			t.Errorf("cat %v: closed-form HT %v, per-key %v", cat, got, want)
		}
		if got, want := e.L(c), ORLKnownSeeds(o); math.Abs(got-want) > 1e-12 {
			t.Errorf("cat %v: closed-form L %v, per-key %v", cat, got, want)
		}
	}
}

// TestDistinctVarianceFormulas: over hash salts, both estimates are
// unbiased and their variances match the closed forms.
func TestDistinctVarianceFormulas(t *testing.T) {
	// Keys 1..250 are in set 1, keys 151..400 in set 2.
	const union, inter = 400.0, 100.0
	j := inter / union
	p := 0.3
	e := DistinctEstimator{P1: p, P2: p}
	const trials = 6000
	var ht, l []float64
	for i := 0; i < trials; i++ {
		seeder := xhash.Seeder{Salt: 7777 + uint64(i)}
		var c DistinctCounts
		for k := uint64(1); k <= union; k++ {
			u1, u2 := seeder.Seed(0, k), seeder.Seed(1, k)
			s1, s2 := k <= 250 && u1 < p, k > 150 && u2 < p
			if s1 || s2 {
				c.Add(Categorize(s1, s2, u1, u2, p, p))
			}
		}
		ht = append(ht, e.HT(c))
		l = append(l, e.L(c))
	}
	meanVar := func(xs []float64) (m, v float64) {
		for _, x := range xs {
			m += x
		}
		m /= float64(len(xs))
		for _, x := range xs {
			v += (x - m) * (x - m)
		}
		return m, v / float64(len(xs))
	}
	mHT, vHT := meanVar(ht)
	mL, vL := meanVar(l)
	if math.Abs(mHT-union)/union > 0.02 || math.Abs(mL-union)/union > 0.02 {
		t.Errorf("means HT %v, L %v, want %v", mHT, mL, union)
	}
	if want := e.VarHT(union); math.Abs(vHT-want)/want > 0.08 {
		t.Errorf("VarHT: MC %v, formula %v", vHT, want)
	}
	if want := e.VarL(union, j); math.Abs(vL-want)/want > 0.08 {
		t.Errorf("VarL: MC %v, formula %v", vL, want)
	}
	// L dominates HT.
	if e.VarL(union, j) > e.VarHT(union) {
		t.Errorf("VarL %v > VarHT %v", e.VarL(union, j), e.VarHT(union))
	}
}

// TestDistinctCountsSampled: every category but CatNone is a sampled key,
// tallied in its own field.
func TestDistinctCountsSampled(t *testing.T) {
	var c DistinctCounts
	for _, cat := range []Category{catNone, cat1Q, catQ1, cat11, cat11, cat10, cat01, catNone} {
		c.Add(cat)
	}
	if want := (DistinctCounts{F1Q: 1, FQ1: 1, F11: 2, F10: 1, F01: 1}); c != want {
		t.Errorf("counts %+v, want %+v", c, want)
	}
	if c.Sampled() != 6 {
		t.Errorf("Sampled() = %d, want 6", c.Sampled())
	}
}

// TestCategorizeSeedAtThreshold: a seed equal to the sampling probability
// reveals absence, matching the u ≤ p rule of the r-instance kernel.
func TestCategorizeSeedAtThreshold(t *testing.T) {
	if got := Categorize(true, false, 0.1, 0.4, 0.3, 0.4); got != cat10 {
		t.Errorf("u2 = p2: %v, want Cat10", got)
	}
	if got := Categorize(false, true, 0.3, 0.1, 0.3, 0.4); got != cat01 {
		t.Errorf("u1 = p1: %v, want Cat01", got)
	}
}

// TestDistinctEstimatorFullRate: at p1 = p2 = 1 every sampled key is fully
// determined, both estimates count the keys exactly, and both variances
// vanish.
func TestDistinctEstimatorFullRate(t *testing.T) {
	e := DistinctEstimator{P1: 1, P2: 1}
	c := DistinctCounts{F11: 7, F10: 5, F01: 3}
	if e.HT(c) != 15 || e.L(c) != 15 {
		t.Errorf("estimates (%v, %v), want 15", e.HT(c), e.L(c))
	}
	for _, j := range []float64{0, 0.5, 1} {
		if e.VarHT(100) != 0 || e.VarL(100, j) != 0 {
			t.Errorf("J=%v: variances (%v, %v), want 0", j, e.VarHT(100), e.VarL(100, j))
		}
	}
}

// TestDistinctVarLIdenticalSets: on identical sets (J = 1) each key has two
// chances to be sampled, so VAR[D̂^(L)] = D(1/(2p − p²) − 1).
func TestDistinctVarLIdenticalSets(t *testing.T) {
	const d = 1000.0
	for _, p := range []float64{0.05, 0.3, 0.8} {
		e := DistinctEstimator{P1: p, P2: p}
		if got, want := e.VarL(d, 1), d*(1/(2*p-p*p)-1); math.Abs(got-want) > 1e-9*want {
			t.Errorf("p=%v: VarL %v, want %v", p, got, want)
		}
	}
}
