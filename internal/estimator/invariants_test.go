package estimator

import (
	"math"
	"testing"
	"testing/quick"
)

// Property-based invariant tests (testing/quick) on the estimator layer.

// TestQuickMaxL2PPSSymmetry: exchanging the two entries together with
// their thresholds and seeds leaves the estimate unchanged.
func TestQuickMaxL2PPSSymmetry(t *testing.T) {
	f := func(a, b, ta, tb, ua, ub float64) bool {
		v1, v2 := 20*frac(a), 20*frac(b)
		t1, t2 := 1+30*frac(ta), 1+30*frac(tb)
		u1, u2 := frac(ua), frac(ub)
		o := SamplePPS([]float64{v1, v2}, []float64{u1, u2}, []float64{t1, t2})
		swapped := SamplePPS([]float64{v2, v1}, []float64{u2, u1}, []float64{t2, t1})
		x, y := MaxL2PPS(o), MaxL2PPS(swapped)
		return approxEq(x, y, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestQuickMaxL2Symmetry: the oblivious max^(L) is invariant under entry
// permutation (with probabilities permuted too).
func TestQuickMaxL2Symmetry(t *testing.T) {
	f := func(a, b, pa, pb, ua, ub float64) bool {
		v1, v2 := 100*frac(a), 100*frac(b)
		p1, p2 := 0.05+0.9*frac(pa), 0.05+0.9*frac(pb)
		u1, u2 := frac(ua), frac(ub)
		o := SampleOblivious([]float64{v1, v2}, []float64{u1, u2}, []float64{p1, p2})
		sw := SampleOblivious([]float64{v2, v1}, []float64{u2, u1}, []float64{p2, p1})
		if !approxEq(MaxL2(o), MaxL2(sw), 1e-9) {
			return false
		}
		return approxEq(MaxU2(o), MaxU2(sw), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestQuickMaxL2Scale: the estimators are positively homogeneous — scaling
// the data scales the estimate (for fixed sampled set; oblivious sampling
// is value-independent so the outcome structure is preserved).
func TestQuickMaxL2Scale(t *testing.T) {
	f := func(a, b, pa, pb, s float64) bool {
		v1, v2 := 10*frac(a), 10*frac(b)
		p1, p2 := 0.05+0.9*frac(pa), 0.05+0.9*frac(pb)
		c := 0.1 + 10*frac(s)
		o := ObliviousOutcome{P: []float64{p1, p2}, Sampled: []bool{true, true}, Values: []float64{v1, v2}}
		oc := ObliviousOutcome{P: []float64{p1, p2}, Sampled: []bool{true, true}, Values: []float64{c * v1, c * v2}}
		return approxEq(c*MaxL2(o), MaxL2(oc), 1e-9) &&
			approxEq(c*MaxU2(o), MaxU2(oc), 1e-9) &&
			approxEq(c*MaxHTOblivious(o), MaxHTOblivious(oc), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestQuickDeterminingVectorConsistency: the determining vector is always
// consistent with the outcome — it matches sampled values exactly and
// respects revealed upper bounds on unsampled entries.
func TestQuickDeterminingVectorConsistency(t *testing.T) {
	f := func(a, b, ta, tb, ua, ub float64) bool {
		v := []float64{20 * frac(a), 20 * frac(b)}
		tau := []float64{1 + 30*frac(ta), 1 + 30*frac(tb)}
		u := []float64{frac(ua), frac(ub)}
		o := SamplePPS(v, u, tau)
		phi := o.DeterminingVector()
		for i := 0; i < 2; i++ {
			if o.Sampled[i] {
				if phi[i] != o.Values[i] {
					return false
				}
			} else if phi[i] > o.U[i]*o.Tau[i]+1e-12 {
				return false
			}
		}
		// φ's max equals the max sampled value when anything was sampled.
		if o.numSampled() > 0 {
			if !approxEq(math.Max(phi[0], phi[1]), o.maxSampled(), 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestQuickBinaryMappingInformationPreserving: the §5 outcome mapping is
// information-preserving — the oblivious image determines exactly the
// revealed entries.
func TestQuickBinaryMappingInformationPreserving(t *testing.T) {
	f := func(b1, b2 bool, pa, pb, ua, ub float64) bool {
		v := []float64{0, 0}
		if b1 {
			v[0] = 1
		}
		if b2 {
			v[1] = 1
		}
		p := []float64{0.05 + 0.9*frac(pa), 0.05 + 0.9*frac(pb)}
		u := []float64{frac(ua), frac(ub)}
		o := SampleBinaryKnownSeeds(v, u, p)
		m := o.ToOblivious()
		for i := 0; i < 2; i++ {
			revealed := u[i] <= p[i]
			if m.Sampled[i] != revealed {
				return false
			}
			if revealed && m.Values[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestQuickHTSupport: max^(HT) under PPS is positive exactly when the
// outcome determines the maximum.
func TestQuickHTSupport(t *testing.T) {
	f := func(a, b, ta, tb, ua, ub float64) bool {
		v := []float64{20 * frac(a), 20 * frac(b)}
		tau := []float64{1 + 30*frac(ta), 1 + 30*frac(tb)}
		u := []float64{frac(ua), frac(ub)}
		o := SamplePPS(v, u, tau)
		est := MaxHTPPS(o)
		m := o.maxSampled()
		determined := m > 0
		for i := 0; i < 2; i++ {
			if !o.Sampled[i] && o.U[i]*o.Tau[i] > m {
				determined = false
			}
		}
		if determined != (est > 0) {
			return false
		}
		// When positive, the estimate is at least the true sampled max.
		return est == 0 || est >= m-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}
