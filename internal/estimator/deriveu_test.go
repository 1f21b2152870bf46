package estimator

import (
	"testing"
)

// TestDeriveUMatchesMaxU: Algorithm 2 with the positives partition
// reproduces the symmetric max^(U) closed form on the binary domain,
// on both sides of p1+p2 = 1 and for asymmetric probabilities.
func TestDeriveUMatchesMaxU(t *testing.T) {
	for _, pp := range [][2]float64{
		{0.3, 0.3}, {0.2, 0.6}, {0.6, 0.2}, {0.7, 0.8}, {0.5, 0.5}, {0.25, 0.1},
	} {
		p := []float64{pp[0], pp[1]}
		d, err := DeriveU(DiscreteProblem{
			P:       p,
			Domains: [][]float64{{0, 1}, {0, 1}},
			F:       maxOf,
			Less:    SparseOrder,
		}, PositivesBatch)
		if err != nil {
			t.Fatalf("p=%v: %v", pp, err)
		}
		if !d.Nonnegative() {
			t.Errorf("p=%v: batch derivation negative (min %v)", pp, d.MinEstimate)
		}
		forEachOutcome(p, [][]float64{{0, 1}, {0, 1}}, func(o ObliviousOutcome) {
			got, err := d.Estimate(o)
			if err != nil {
				t.Fatal(err)
			}
			if want := MaxU2(o); !approxEq(got, want, 1e-7) {
				t.Errorf("p=%v outcome %v/%v: derived %v, closed form %v",
					pp, o.Sampled, o.Values, got, want)
			}
		})
	}
}

// TestDeriveUUnbiasedMultiValue: the batch construction stays exactly
// unbiased on multi-valued domains.
func TestDeriveUUnbiasedMultiValue(t *testing.T) {
	dom := [][]float64{{0, 1, 2}, {0, 1, 2}}
	p := []float64{0.3, 0.45}
	d, err := DeriveU(DiscreteProblem{P: p, Domains: dom, F: maxOf, Less: SparseOrder}, PositivesBatch)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Nonnegative() {
		t.Errorf("negative estimates: min %v", d.MinEstimate)
	}
	for _, v1 := range dom[0] {
		for _, v2 := range dom[1] {
			v := []float64{v1, v2}
			mean, _ := ObliviousMoments(p, v, func(o ObliviousOutcome) float64 {
				x, err := d.Estimate(o)
				if err != nil {
					t.Fatal(err)
				}
				return x
			})
			if !approxEq(mean, maxOf(v), 1e-7) {
				t.Errorf("v=%v: mean %v, want %v", v, mean, maxOf(v))
			}
		}
	}
}

// TestDeriveUSymmetric: with uniform probabilities, the batch estimator is
// symmetric — permuting entries leaves the estimate unchanged — unlike
// the ≺-ordered f̂(+≺) (which reproduces the asymmetric Uas).
func TestDeriveUSymmetric(t *testing.T) {
	p := []float64{0.3, 0.3}
	dom := [][]float64{{0, 1, 2}, {0, 1, 2}}
	d, err := DeriveU(DiscreteProblem{P: p, Domains: dom, F: maxOf, Less: SparseOrder}, PositivesBatch)
	if err != nil {
		t.Fatal(err)
	}
	check := func(s1, s2 bool, v1, v2 float64) {
		a, err := d.Estimate(ObliviousOutcome{P: p, Sampled: []bool{s1, s2}, Values: []float64{v1, v2}})
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.Estimate(ObliviousOutcome{P: p, Sampled: []bool{s2, s1}, Values: []float64{v2, v1}})
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(a, b, 1e-8) {
			t.Errorf("asymmetry at (%v,%v)/(%v,%v): %v vs %v", s1, v1, s2, v2, a, b)
		}
	}
	check(true, false, 1, 0)
	check(true, true, 2, 1)
	check(true, true, 1, 0)
	check(false, true, 0, 2)
}

// TestDeriveUBatchVarianceBelowUas: on the (1,0)+(0,1) pair the symmetric
// batch solution has total variance no larger than the asymmetric
// sequential one (it minimizes exactly that total), while Uas is better
// on (1,0) alone — the §4.2 Pareto story.
func TestDeriveUBatchVarianceBelowUas(t *testing.T) {
	p := []float64{0.3, 0.3}
	prob := DiscreteProblem{P: p, Domains: [][]float64{{0, 1}, {0, 1}}, F: maxOf, Less: SparseOrder}
	u, err := DeriveU(prob, PositivesBatch)
	if err != nil {
		t.Fatal(err)
	}
	probUas := prob
	probUas.Less = UasOrder
	uas, err := DerivePlus(probUas)
	if err != nil {
		t.Fatal(err)
	}
	varOf := func(d *Derived, v []float64) float64 {
		_, vr := ObliviousMoments(p, v, func(o ObliviousOutcome) float64 {
			x, err := d.Estimate(o)
			if err != nil {
				t.Fatal(err)
			}
			return x
		})
		return vr
	}
	uPair := varOf(u, []float64{1, 0}) + varOf(u, []float64{0, 1})
	uasPair := varOf(uas, []float64{1, 0}) + varOf(uas, []float64{0, 1})
	if uPair > uasPair+1e-9 {
		t.Errorf("batch pair variance %v above sequential %v", uPair, uasPair)
	}
	if varOf(uas, []float64{1, 0}) > varOf(u, []float64{1, 0})+1e-9 {
		t.Errorf("Uas should win on its prioritized vector (1,0)")
	}
}

// TestDeriveUZeroBatchFirst: the all-zero vector forms batch 0 and pins
// its outcomes to 0.
func TestDeriveUZeroBatchFirst(t *testing.T) {
	p := []float64{0.4, 0.4}
	d, err := DeriveU(DiscreteProblem{
		P: p, Domains: [][]float64{{0, 1}, {0, 1}}, F: maxOf, Less: SparseOrder,
	}, PositivesBatch)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []ObliviousOutcome{
		{P: p, Sampled: []bool{false, false}, Values: []float64{0, 0}},
		{P: p, Sampled: []bool{true, false}, Values: []float64{0, 0}},
		{P: p, Sampled: []bool{true, true}, Values: []float64{0, 0}},
	} {
		got, err := d.Estimate(o)
		if err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Errorf("zero-consistent outcome %v has estimate %v", o.Sampled, got)
		}
	}
}
