package estimator

import (
	"errors"
	"math"
	"testing"
)

// TestDeriveORLMatchesClosedForm runs Algorithm 1 with the §4.3 order on
// the binary domain and checks the derived table equals OR^(L) on every
// outcome.
func TestDeriveORLMatchesClosedForm(t *testing.T) {
	for _, p1 := range []float64{0.2, 0.5, 0.8} {
		for _, p2 := range []float64{0.3, 0.5, 0.9} {
			d, err := Derive(DiscreteProblem{
				P:       []float64{p1, p2},
				Domains: [][]float64{{0, 1}, {0, 1}},
				F:       orOf,
				Less:    ORLOrder,
			})
			if err != nil {
				t.Fatalf("p=(%v,%v): %v", p1, p2, err)
			}
			if !d.Nonnegative() {
				t.Errorf("p=(%v,%v): derived OR^L negative (min %v)", p1, p2, d.MinEstimate)
			}
			forEachOutcome2([]float64{p1, p2}, [][]float64{{0, 1}, {0, 1}}, func(o ObliviousOutcome) {
				got, err := d.Estimate(o)
				if err != nil {
					t.Fatal(err)
				}
				if want := ORL2(o); !approxEq(got, want, 1e-9) {
					t.Errorf("p=(%v,%v) outcome %v/%v: derived %v, closed form %v",
						p1, p2, o.Sampled, o.Values, got, want)
				}
			})
		}
	}
}

// TestDeriveMaxLMatchesClosedForm derives max^(L) on a 3-value domain and
// compares against the r=2 closed form (which holds for arbitrary reals, so
// in particular on the discrete grid).
func TestDeriveMaxLMatchesClosedForm(t *testing.T) {
	dom := [][]float64{{0, 1, 2}, {0, 1, 2}}
	for _, p1 := range []float64{0.3, 0.6} {
		for _, p2 := range []float64{0.4, 0.7} {
			d, err := Derive(DiscreteProblem{
				P:       []float64{p1, p2},
				Domains: dom,
				F:       maxOf,
				Less:    MaxLOrder,
			})
			if err != nil {
				t.Fatal(err)
			}
			forEachOutcome2([]float64{p1, p2}, dom, func(o ObliviousOutcome) {
				got, err := d.Estimate(o)
				if err != nil {
					t.Fatal(err)
				}
				if want := MaxL2(o); !approxEq(got, want, 1e-9) {
					t.Errorf("p=(%v,%v) outcome %v/%v: derived %v, closed form %v",
						p1, p2, o.Sampled, o.Values, got, want)
				}
			})
		}
	}
}

// TestDeriveMaxLUniformR3 cross-validates the Theorem 4.2 recurrence: the
// generic engine on a binary 3-entry domain must agree with MaxLUniform.
func TestDeriveMaxLUniformR3(t *testing.T) {
	p := 0.4
	e, err := NewMaxLUniform(3, p)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Derive(DiscreteProblem{
		P:       []float64{p, p, p},
		Domains: [][]float64{{0, 1}, {0, 1}, {0, 1}},
		F:       maxOf,
		Less:    MaxLOrder,
	})
	if err != nil {
		t.Fatal(err)
	}
	for mask := 0; mask < 8; mask++ {
		for vm := 0; vm < 8; vm++ {
			o := ObliviousOutcome{P: []float64{p, p, p}, Sampled: make([]bool, 3), Values: make([]float64, 3)}
			for i := 0; i < 3; i++ {
				o.Sampled[i] = mask&(1<<uint(i)) != 0
				if o.Sampled[i] && vm&(1<<uint(i)) != 0 {
					o.Values[i] = 1
				}
			}
			got, err := d.Estimate(o)
			if err != nil {
				t.Fatal(err)
			}
			if want := e.Estimate(o); !approxEq(got, want, 1e-9) {
				t.Errorf("outcome %v/%v: derived %v, recurrence %v", o.Sampled, o.Values, got, want)
			}
		}
	}
}

// TestDeriveUnbiasedByEnumeration confirms the derived estimator satisfies
// the unbiasedness constraints it was built from, on every data vector.
func TestDeriveUnbiasedByEnumeration(t *testing.T) {
	dom := [][]float64{{0, 1, 3}, {0, 2, 3}}
	p := []float64{0.35, 0.55}
	d, err := Derive(DiscreteProblem{P: p, Domains: dom, F: maxOf, Less: MaxLOrder})
	if err != nil {
		t.Fatal(err)
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
			if !approxEq(mean, maxOf(v), 1e-9) {
				t.Errorf("v=%v: mean %v, want %v", v, mean, maxOf(v))
			}
		}
	}
}

// TestDeriveSparseOrderGoesNegative reproduces the §4.2 observation: plain
// Algorithm 1 under the sparse-first order yields a negative estimate when
// p1 + p2 < 1 (motivating the nonnegativity-constrained f̂(+≺) and the
// partition-based max^(U)).
func TestDeriveSparseOrderGoesNegative(t *testing.T) {
	d, err := Derive(DiscreteProblem{
		P:       []float64{0.3, 0.3},
		Domains: [][]float64{{0, 1}, {0, 1}},
		F:       maxOf,
		Less:    SparseOrder,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Nonnegative() {
		t.Errorf("expected negative estimates for sparse order at p1+p2<1, min=%v", d.MinEstimate)
	}
	// With p1 + p2 ≥ 1 the same derivation stays nonnegative.
	d2, err := Derive(DiscreteProblem{
		P:       []float64{0.6, 0.6},
		Domains: [][]float64{{0, 1}, {0, 1}},
		F:       maxOf,
		Less:    SparseOrder,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Nonnegative() {
		t.Errorf("expected nonnegative estimates at p1+p2≥1, min=%v", d2.MinEstimate)
	}
}

// TestDeriveFailurePath models the unknown-seed weighted regime inside the
// engine: setting p2 = 0 makes entry 2 never observable, which is the
// information structure of Theorem 6.1 — and the derivation of OR must
// fail (vector (0,1) demands expectation 1 but all its outcomes were
// already forced to 0).
func TestDeriveFailurePath(t *testing.T) {
	_, err := Derive(DiscreteProblem{
		P:       []float64{0.5, 0},
		Domains: [][]float64{{0, 1}, {0, 1}},
		F:       orOf,
		Less:    ORLOrder,
	})
	if err == nil {
		t.Fatal("expected failure when one entry is never observable")
	}
	if !errors.Is(err, errNoUnbiased) {
		t.Fatalf("expected ErrNoUnbiased, got %v", err)
	}
}

// TestDeriveXORIsHT: XOR on binary domains equals RG, whose HT estimator is
// Pareto optimal for r = 2 (§4); the order-based derivation must rediscover
// exactly that estimator — positive only on fully sampled mixed outcomes,
// and nonnegative.
func TestDeriveXORIsHT(t *testing.T) {
	p := []float64{0.4, 0.4}
	xor := func(v []float64) float64 {
		if (v[0] > 0) != (v[1] > 0) {
			return 1
		}
		return 0
	}
	d, err := Derive(DiscreteProblem{
		P:       p,
		Domains: [][]float64{{0, 1}, {0, 1}},
		F:       xor,
		Less:    ORLOrder,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Nonnegative() {
		t.Errorf("derived XOR estimator negative: min=%v", d.MinEstimate)
	}
	forEachOutcome2(p, [][]float64{{0, 1}, {0, 1}}, func(o ObliviousOutcome) {
		got, err := d.Estimate(o)
		if err != nil {
			t.Fatal(err)
		}
		want := HTOblivious(o, xor)
		if !approxEq(got, want, 1e-9) {
			t.Errorf("outcome %v/%v: derived %v, HT %v", o.Sampled, o.Values, got, want)
		}
	})
	for _, v := range binaryVectors2 {
		mean, _ := ObliviousMoments(p, v, func(o ObliviousOutcome) float64 {
			x, err := d.Estimate(o)
			if err != nil {
				t.Fatal(err)
			}
			return x
		})
		if !approxEq(mean, xor(v), 1e-9) {
			t.Errorf("derived XOR biased on %v: mean %v", v, mean)
		}
	}
}

// forEachOutcome2 enumerates every outcome (sampled set × domain values)
// for a 2-entry problem.
func forEachOutcome2(p []float64, dom [][]float64, f func(ObliviousOutcome)) {
	for mask := 0; mask < 4; mask++ {
		vals1 := []float64{0}
		if mask&1 != 0 {
			vals1 = dom[0]
		}
		vals2 := []float64{0}
		if mask&2 != 0 {
			vals2 = dom[1]
		}
		for _, v1 := range vals1 {
			for _, v2 := range vals2 {
				f(ObliviousOutcome{
					P:       p,
					Sampled: []bool{mask&1 != 0, mask&2 != 0},
					Values:  []float64{v1, v2},
				})
			}
		}
	}
}

// TestDerivedTableSize sanity-checks outcome coverage.
func TestDerivedTableSize(t *testing.T) {
	d, err := Derive(DiscreteProblem{
		P:       []float64{0.5, 0.5},
		Domains: [][]float64{{0, 1}, {0, 1}},
		F:       orOf,
		Less:    ORLOrder,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Outcomes: ∅ (1) + {1} (2 values) + {2} (2) + {1,2} (4) = 9.
	if d.Len() != 9 {
		t.Errorf("table size %d, want 9", d.Len())
	}
	if math.IsInf(d.MinEstimate, 1) {
		t.Error("MinEstimate not set")
	}
}

// ORLOrder is the §4.3 order for OR^(L) on binary domains: zero vector
// first, then ascending number of zero entries.
func ORLOrder(a, b []float64) bool {
	za, zb := allZero(a), allZero(b)
	if za || zb {
		return za && !zb
	}
	return zeros(a) < zeros(b)
}

func zeros(v []float64) int {
	n := 0
	for _, x := range v {
		if x == 0 {
			n++
		}
	}
	return n
}
