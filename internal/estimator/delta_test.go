package estimator

import (
	"math"
	"testing"
)

func binaryProblem(p1, p2 float64, f func([]float64) float64) DiscreteProblem {
	return DiscreteProblem{
		P:       []float64{p1, p2},
		Domains: [][]float64{{0, 1}, {0, 1}},
		F:       f,
		Less:    ORLOrder,
	}
}

// TestDeltaMaxPositive: for max over weight-oblivious samples, Δ(v, ε) > 0
// everywhere — consistent with the existence of max^(L)/max^(U)
// (Lemma 2.1's necessary condition holds).
func TestDeltaMaxPositive(t *testing.T) {
	p := binaryProblem(0.3, 0.4, maxOf)
	if !DeltaFeasible(p) {
		t.Error("Δ condition fails for max, but estimators exist")
	}
	// Explicit value: for v=(1,1), ε=1, the largest portion keeping
	// f ≤ 0 must leave both entries unsampled: Δ = 1 − (1−p1)(1−p2).
	got := DeltaOblivious(p, []float64{1, 1}, 1)
	want := 1 - 0.7*0.6
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Δ((1,1),1) = %v, want %v", got, want)
	}
	// For v=(1,0): keeping f ≤ 0 requires entry 1 unsampled (entry 2 may
	// be sampled since its value 0 doesn't pin the max): Δ = p1.
	got = DeltaOblivious(p, []float64{1, 0}, 1)
	if math.Abs(got-0.3) > 1e-12 {
		t.Errorf("Δ((1,0),1) = %v, want 0.3", got)
	}
}

// TestDeltaXOR: XOR also satisfies the necessary condition under
// weight-oblivious sampling (the HT estimator exists; see
// TestDeriveXORIsHT). Keeping XOR below XOR(1,0)=1 only requires hiding
// one of the entries.
func TestDeltaXOR(t *testing.T) {
	xor := func(v []float64) float64 {
		if (v[0] > 0) != (v[1] > 0) {
			return 1
		}
		return 0
	}
	p := binaryProblem(0.5, 0.5, xor)
	if !DeltaFeasible(p) {
		t.Error("Δ condition fails for XOR under oblivious sampling")
	}
	// Δ((1,0), 1): hiding either single entry already admits a consistent
	// vector with XOR = 0, so the best portion fixes only one entry's
	// visibility — Ω′ = {σ ⊆ {i}} with probability 1 − p_j. Hence
	// Δ = 1 − max(1−p1, 1−p2) = min(p1, p2) = 0.5 here.
	if got := DeltaOblivious(p, []float64{1, 0}, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Δ((1,0),1) = %v, want 0.5", got)
	}
}

// TestDeltaUnobservableEntry models the unknown-seeds information
// structure inside the oblivious formalism (p2 = 0: entry 2 never
// observed) and recovers the Theorem 6.1 impossibility: Δ((0,1), 1) = 0.
func TestDeltaUnobservableEntry(t *testing.T) {
	p := DiscreteProblem{
		P:       []float64{0.5, 0},
		Domains: [][]float64{{0, 1}, {0, 1}},
		F:       orOf,
		Less:    ORLOrder,
	}
	if got := DeltaOblivious(p, []float64{0, 1}, 1); got != 0 {
		t.Errorf("Δ((0,1),1) = %v, want 0", got)
	}
	if DeltaFeasible(p) {
		t.Error("Δ condition should fail with an unobservable positive entry")
	}
	// And indeed the derivation fails (cross-check with Algorithm 1).
	if _, err := Derive(p); err == nil {
		t.Error("Derive should fail where Δ = 0")
	}
}

// TestDeltaMonotoneInEps: Δ(v, ε) is non-decreasing in ε (larger
// deviations are harder to hide).
func TestDeltaMonotoneInEps(t *testing.T) {
	p := DiscreteProblem{
		P:       []float64{0.3, 0.6},
		Domains: [][]float64{{0, 1, 2}, {0, 1, 2}},
		F:       maxOf,
		Less:    MaxLOrder,
	}
	v := []float64{2, 1}
	prev := -1.0
	for _, eps := range []float64{0.5, 1, 1.5, 2, 2.5} {
		d := DeltaOblivious(p, v, eps)
		if d < prev-1e-12 {
			t.Errorf("Δ decreasing at ε=%v: %v after %v", eps, d, prev)
		}
		prev = d
	}
	// Beyond any achievable gap, Δ = 1.
	if got := DeltaOblivious(p, v, 10); got != 1 {
		t.Errorf("Δ(v, 10) = %v, want 1", got)
	}
}

// The necessary conditions of §2.3 (Lemma 2.1), made executable for
// weight-oblivious Poisson sampling over finite domains.
//
// Δ(v, ε) measures how much outcome-probability mass necessarily pins
// f near f(v): the paper shows an unbiased nonnegative estimator requires
// Δ(v, ε) > 0 for all ε > 0, bounded variance requires Δ(v, ε) = Ω(ε²),
// and boundedness requires Δ(v, ε) = Ω(ε).
//
// For weight-oblivious sampling the sample space is the set of constant
// predicate vectors σ ∈ 2^[r], and the vectors consistent with every
// outcome of a portion Ω′ are exactly those agreeing with v on the union
// of the sampled sets of Ω′. The supremum over Ω′ with a given union U is
// attained by Ω′ = {σ : σ ⊆ U}, whose probability is Π_{i∉U}(1−p_i), so
//
//	Δ(v, ε) = 1 − max{ Π_{i∉U}(1−p_i) :
//	                   U ⊆ [r], inf{f(w) : w_i = v_i ∀i∈U} ≤ f(v) − ε }.
func DeltaOblivious(p DiscreteProblem, v []float64, eps float64) float64 {
	r := len(p.P)
	fv := p.F(v)
	best := -1.0
	for u := 0; u < 1<<uint(r); u++ {
		// inf f over vectors agreeing with v on U.
		inf := infAgreeing(p, v, u)
		if inf > fv-eps {
			continue
		}
		prob := 1.0
		for i := 0; i < r; i++ {
			if u&(1<<uint(i)) == 0 {
				prob *= 1 - p.P[i]
			}
		}
		if prob > best {
			best = prob
		}
	}
	if best < 0 {
		// No portion can keep f below f(v) − ε: Δ = 1 by the paper's
		// convention for that case.
		return 1
	}
	return 1 - best
}

// infAgreeing returns inf{f(w) : w ∈ domains, w_i = v_i for i ∈ U}.
func infAgreeing(p DiscreteProblem, v []float64, u int) float64 {
	r := len(p.P)
	w := make([]float64, r)
	best := math.Inf(1)
	var rec func(i int)
	rec = func(i int) {
		if i == r {
			if f := p.F(w); f < best {
				best = f
			}
			return
		}
		if u&(1<<uint(i)) != 0 {
			w[i] = v[i]
			rec(i + 1)
			return
		}
		for _, x := range p.Domains[i] {
			w[i] = x
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

// DeltaFeasible reports whether the Lemma 2.1 necessary condition for an
// unbiased nonnegative estimator — Δ(v, ε) > 0 for every v and ε > 0 —
// holds over the whole finite domain. For discrete domains it suffices to
// check the smallest positive ε (the minimum gap between distinct values
// of f below each f(v)).
func DeltaFeasible(p DiscreteProblem) bool {
	vectors := enumerate(p.Domains)
	for _, v := range vectors {
		fv := p.F(v)
		// Collect candidate gaps: f(v) − f(w) over all w with smaller f.
		for _, w := range vectors {
			gap := fv - p.F(w)
			if gap <= 1e-12 {
				continue
			}
			if DeltaOblivious(p, v, gap) <= 1e-12 {
				return false
			}
		}
	}
	return true
}
