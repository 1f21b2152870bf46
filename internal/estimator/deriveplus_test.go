package estimator

import (
	"testing"
)

// TestDerivePlusMatchesUas: f̂(+≺) under the §4.2 processing order
// reproduces the closed-form asymmetric estimator max^(Uas) on the binary
// domain, for probabilities on both sides of p1+p2 = 1.
func TestDerivePlusMatchesUas(t *testing.T) {
	for _, pp := range [][2]float64{
		{0.3, 0.3}, {0.2, 0.6}, {0.6, 0.2}, {0.7, 0.8}, {0.5, 0.5},
	} {
		p := []float64{pp[0], pp[1]}
		d, err := DerivePlus(DiscreteProblem{
			P:       p,
			Domains: [][]float64{{0, 1}, {0, 1}},
			F:       maxOf,
			Less:    UasOrder,
		})
		if err != nil {
			t.Fatalf("p=%v: %v", pp, err)
		}
		if !d.Nonnegative() {
			t.Errorf("p=%v: constrained derivation went negative (min %v)", pp, d.MinEstimate)
		}
		forEachOutcome(p, [][]float64{{0, 1}, {0, 1}}, func(o ObliviousOutcome) {
			got, err := d.Estimate(o)
			if err != nil {
				t.Fatal(err)
			}
			if want := MaxUAsym2(o); !approxEq(got, want, 1e-8) {
				t.Errorf("p=%v outcome %v/%v: derived %v, closed form %v",
					pp, o.Sampled, o.Values, got, want)
			}
		})
	}
}

// TestDerivePlusUnbiased: the constrained estimator remains exactly
// unbiased on every data vector of a multi-valued domain.
func TestDerivePlusUnbiased(t *testing.T) {
	dom := [][]float64{{0, 1, 3}, {0, 2, 3}}
	p := []float64{0.35, 0.3}
	d, err := DerivePlus(DiscreteProblem{P: p, Domains: dom, F: maxOf, Less: UasOrder})
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
			if !approxEq(mean, maxOf(v), 1e-8) {
				t.Errorf("v=%v: mean %v, want %v", v, mean, maxOf(v))
			}
		}
	}
}

// TestDerivePlusEqualsDeriveWhenUnconstrained: when the plain order-based
// estimator is already nonnegative (the max^(L) order), the constrained
// construction must coincide with it.
func TestDerivePlusEqualsDeriveWhenUnconstrained(t *testing.T) {
	prob := DiscreteProblem{
		P:       []float64{0.4, 0.7},
		Domains: [][]float64{{0, 1, 2}, {0, 1, 2}},
		F:       maxOf,
		Less:    MaxLOrder,
	}
	plain, err := Derive(prob)
	if err != nil {
		t.Fatal(err)
	}
	constrained, err := DerivePlus(prob)
	if err != nil {
		t.Fatal(err)
	}
	forEachOutcome(prob.P, prob.Domains, func(o ObliviousOutcome) {
		a, err := plain.Estimate(o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := constrained.Estimate(o)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(a, b, 1e-8) {
			t.Errorf("outcome %v/%v: plain %v, constrained %v", o.Sampled, o.Values, a, b)
		}
	})
}

// TestDerivePlusSparseOrderStaysNonnegative contrasts with
// TestDeriveSparseOrderGoesNegative: the same order that breaks plain
// Algorithm 1 at p1+p2 < 1 yields a valid nonnegative estimator under the
// constrained construction.
func TestDerivePlusSparseOrderStaysNonnegative(t *testing.T) {
	p := []float64{0.3, 0.3}
	d, err := DerivePlus(DiscreteProblem{
		P:       p,
		Domains: [][]float64{{0, 1}, {0, 1}},
		F:       maxOf,
		Less:    SparseOrder,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Nonnegative() {
		t.Fatalf("constrained derivation negative: min %v", d.MinEstimate)
	}
	for _, v := range binaryVectors2 {
		mean, _ := ObliviousMoments(p, v, func(o ObliviousOutcome) float64 {
			x, err := d.Estimate(o)
			if err != nil {
				t.Fatal(err)
			}
			return x
		})
		if !approxEq(mean, maxOf(v), 1e-8) {
			t.Errorf("v=%v: mean %v, want %v", v, mean, maxOf(v))
		}
	}
}

// TestDerivePlusVarianceOrdering: on the "change" vector (1,0) the
// Uas-order estimator has weakly lower variance than the L-order one, and
// on (1,1) the ordering flips — the Pareto trade the paper designs for.
func TestDerivePlusVarianceOrdering(t *testing.T) {
	p := []float64{0.3, 0.3}
	prob := DiscreteProblem{P: p, Domains: [][]float64{{0, 1}, {0, 1}}, F: maxOf}
	probUas := prob
	probUas.Less = UasOrder
	uas, err := DerivePlus(probUas)
	if err != nil {
		t.Fatal(err)
	}
	probL := prob
	probL.Less = MaxLOrder
	l, err := DerivePlus(probL)
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
	if u, lv := varOf(uas, []float64{1, 0}), varOf(l, []float64{1, 0}); u > lv+1e-9 {
		t.Errorf("on (1,0): Uas variance %v above L variance %v", u, lv)
	}
	if u, lv := varOf(uas, []float64{1, 1}), varOf(l, []float64{1, 1}); lv > u+1e-9 {
		t.Errorf("on (1,1): L variance %v above Uas variance %v", lv, u)
	}
}

// TestSolveVarianceQP exercises the QP solver directly, on the problem
// each derivation step poses: minimise Σ w_i x_i² subject to the one
// unbiasedness row Σ w_i x_i = b and the inequalities.
func TestSolveVarianceQP(t *testing.T) {
	solveVarianceQP := func(w []float64, b float64, cons []qpConstraint) ([]float64, error) {
		return solveQP(w, []qpConstraint{{a: w, d: b}}, cons)
	}
	// Unconstrained optimum: equal values b/Σw.
	x, err := solveVarianceQP([]float64{0.2, 0.3}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(x[0], 2, 1e-9) || !approxEq(x[1], 2, 1e-9) {
		t.Errorf("unconstrained solution %v, want [2 2]", x)
	}
	// A binding upper bound on x0 shifts mass to x1.
	x, err = solveVarianceQP([]float64{0.2, 0.3}, 1, []qpConstraint{
		{a: []float64{1, 0}, d: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(x[0], 1, 1e-9) {
		t.Errorf("bound not binding: %v", x)
	}
	if !approxEq(0.2*x[0]+0.3*x[1], 1, 1e-9) {
		t.Errorf("equality violated: %v", x)
	}
	// A non-binding constraint changes nothing.
	x, err = solveVarianceQP([]float64{0.5, 0.5}, 1, []qpConstraint{
		{a: []float64{1, 0}, d: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(x[0], 1, 1e-9) || !approxEq(x[1], 1, 1e-9) {
		t.Errorf("loose constraint perturbed solution: %v", x)
	}
	// Nonnegativity can force an asymmetric split.
	x, err = solveVarianceQP([]float64{0.5, 0.5}, 1, []qpConstraint{
		{a: []float64{-1, 0}, d: 0},
		{a: []float64{0, -1}, d: 0},
		{a: []float64{1, 0}, d: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(x[0], 0.5, 1e-9) || !approxEq(x[1], 1.5, 1e-9) {
		t.Errorf("constrained split %v, want [0.5 1.5]", x)
	}
}

func TestSolveLinear(t *testing.T) {
	x, err := solveLinear([][]float64{{2, 1}, {1, 3}}, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(x[0], 1, 1e-12) || !approxEq(x[1], 3, 1e-12) {
		t.Errorf("solution %v, want [1 3]", x)
	}
	if _, err := solveLinear([][]float64{{1, 1}, {2, 2}}, []float64{1, 2}); err == nil {
		t.Error("singular system did not error")
	}
}
