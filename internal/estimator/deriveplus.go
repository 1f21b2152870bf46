package estimator

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// This file implements f̂(+≺) — Algorithm 1 with the explicit
// nonnegativity constraints (7)–(9) of §3 — for weight-oblivious Poisson
// sampling over finite discrete domains. At each step the estimate values
// on the newly determined outcomes minimize the current vector's variance
// subject to unbiasedness and to not over-committing expectation mass of
// any succeeding vector. The per-step problem is a small convex QP solved
// with an active-set method.
//
// With the sparse-first order that processes (v,0)-shaped vectors before
// (0,v)-shaped ones, the construction reproduces the paper's asymmetric
// estimator max^(Uas) (§4.2) — cross-validated in deriveplus_test.go.

// DerivePlus runs the constrained derivation. Unlike Derive, the
// resulting estimator is nonnegative whenever one exists for the order;
// the price is that outcomes determined by the same vector may carry
// different values (the QP splits mass to respect constraints).
func DerivePlus(p DiscreteProblem) (*Derived, error) {
	r := len(p.P)
	if len(p.Domains) != r {
		return nil, fmt.Errorf("estimator: %d probabilities but %d domains", r, len(p.Domains))
	}
	vectors := enumerate(p.Domains)
	sort.SliceStable(vectors, func(i, j int) bool {
		if p.Less(vectors[i], vectors[j]) {
			return true
		}
		if p.Less(vectors[j], vectors[i]) {
			return false
		}
		return lexLess(vectors[i], vectors[j])
	})
	prS := make([]float64, 1<<uint(r))
	for mask := range prS {
		w := 1.0
		for i := 0; i < r; i++ {
			if mask&(1<<uint(i)) != 0 {
				w *= p.P[i]
			} else {
				w *= 1 - p.P[i]
			}
		}
		prS[mask] = w
	}
	d := &Derived{problem: p, estimate: make(map[string]float64), MinEstimate: math.Inf(1)}
	const tol = 1e-9
	for vi, v := range vectors {
		fv := p.F(v)
		var f0 float64
		var newKeys []string
		var w []float64 // PR[S|v] for the new outcomes
		for mask := 0; mask < 1<<uint(r); mask++ {
			key := outcomeKey(mask, v)
			if x, ok := d.estimate[key]; ok {
				f0 += prS[mask] * x
			} else if !contains(newKeys, key) {
				newKeys = append(newKeys, key)
				w = append(w, prS[mask])
			}
		}
		prNew := 0.0
		for _, wi := range w {
			prNew += wi
		}
		if prNew <= tol {
			if math.Abs(fv-f0) > tol {
				return nil, fmt.Errorf("%w: vector %v needs estimate mass %v but has no unprocessed outcomes", errNoUnbiased, v, fv-f0)
			}
			for _, k := range newKeys {
				d.estimate[k] = 0
			}
			continue
		}
		// Build the inequality constraints (9): for every succeeding
		// vector v', the contribution of the new outcomes must not push
		// E[f̂|v'] above f(v'). Only constraints that actually touch the
		// new outcomes matter.
		var cons []qpConstraint
		for _, vp := range vectors[vi+1:] {
			var coeff []float64
			assigned := 0.0
			touches := false
			coeff = make([]float64, len(newKeys))
			for mask := 0; mask < 1<<uint(r); mask++ {
				key := outcomeKey(mask, vp)
				if x, ok := d.estimate[key]; ok {
					assigned += prS[mask] * x
					continue
				}
				for i, nk := range newKeys {
					if nk == key {
						coeff[i] += prS[mask]
						touches = true
						break
					}
				}
			}
			if touches {
				cons = append(cons, qpConstraint{a: coeff, d: p.F(vp) - assigned})
			}
		}
		// Also nonnegativity of the new values themselves: x_i ≥ 0,
		// i.e. −x_i ≤ 0.
		for i := range newKeys {
			a := make([]float64, len(newKeys))
			a[i] = -1
			cons = append(cons, qpConstraint{a: a, d: 0})
		}
		x, err := solveVarianceQP(w, fv-f0, cons)
		if err != nil {
			return nil, fmt.Errorf("vector %v: %w", v, err)
		}
		for i, k := range newKeys {
			d.estimate[k] = x[i]
			if x[i] < d.MinEstimate {
				d.MinEstimate = x[i]
			}
		}
	}
	if math.IsInf(d.MinEstimate, 1) {
		d.MinEstimate = 0
	}
	return d, nil
}

// qpConstraint is one inequality a·x ≤ d.
type qpConstraint struct {
	a []float64
	d float64
}

// solveVarianceQP minimizes Σ w_i x_i² subject to Σ w_i x_i = b and
// a_j·x ≤ d_j for every constraint, using a primal active-set method.
// Weights w_i ≥ 0; entries with w_i = 0 carry no probability mass and are
// fixed to the common unconstrained value.
func solveVarianceQP(w []float64, b float64, cons []qpConstraint) ([]float64, error) {
	eq := []qpConstraint{{a: append([]float64(nil), w...), d: b}}
	return solveQP(w, eq, cons)
}

// solveQP minimizes Σ w_i x_i² subject to the given equality constraints
// (a·x = d) and inequality constraints (a·x ≤ d) with a primal active-set
// method.
func solveQP(w []float64, eqs, cons []qpConstraint) ([]float64, error) {
	active := make([]int, 0, len(cons))
	inActive := make([]bool, len(cons))
	const tol = 1e-9
	for iter := 0; iter < 300; iter++ {
		x, mu, err := solveEquality(w, eqs, cons, active)
		if err != nil {
			return nil, err
		}
		// Drop an active constraint whose true multiplier is negative (it
		// pushes the wrong way). With the x_i = λ/2 + Σ μ'_j a_{ji}/(2w_i)
		// parametrization used in solveEquality, the true KKT multiplier
		// of an a·x ≤ d constraint is −μ', so "negative multiplier" means
		// μ' > 0.
		dropped := false
		for i := len(active) - 1; i >= 0; i-- {
			if mu[i] > tol {
				inActive[active[i]] = false
				active = append(active[:i], active[i+1:]...)
				dropped = true
				break
			}
		}
		if dropped {
			continue
		}
		// Add the most violated inactive constraint.
		worst, worstViol := -1, tol
		for j, c := range cons {
			if inActive[j] {
				continue
			}
			v := dot(c.a, x) - c.d
			if v > worstViol {
				worst, worstViol = j, v
			}
		}
		if worst < 0 {
			return x, nil
		}
		inActive[worst] = true
		active = append(active, worst)
	}
	return nil, fmt.Errorf("estimator: active-set QP did not converge")
}

// solveEquality minimizes Σ w_i x_i² s.t. the equality constraints and
// a_j·x = d_j for j in active, via the KKT system. It returns the
// solution and the multipliers of the active inequality constraints (in
// the x_i = Σ ν_j a_{ji}/(2w_i) parametrization).
func solveEquality(w []float64, eqs []qpConstraint, cons []qpConstraint, active []int) (x []float64, mu []float64, err error) {
	n := len(w)
	all := make([]qpConstraint, 0, len(eqs)+len(active))
	all = append(all, eqs...)
	for _, j := range active {
		all = append(all, cons[j])
	}
	m := len(all)
	// KKT stationarity: 2 w_i x_i = Σ_j ν_j a_{ji}
	//  ⇒ x_i = Σ_j ν_j a_{ji}/(2 w_i)   (for w_i > 0)
	// Feasibility rows: for each constraint k, Σ_i a_{ki} x_i = d_k, i.e.
	// Σ_j ν_j · (Σ_i a_{ki} a_{ji}/(2 w_i)) = d_k.
	mat := make([][]float64, m)
	rhs := make([]float64, m)
	for k := range mat {
		mat[k] = make([]float64, m)
		for j := 0; j < m; j++ {
			s := 0.0
			for i := 0; i < n; i++ {
				if w[i] > 0 {
					s += all[k].a[i] * all[j].a[i] / w[i]
				}
			}
			mat[k][j] = s / 2
		}
		rhs[k] = all[k].d
	}
	nu, err := solveLinear(mat, rhs)
	if err != nil {
		return nil, nil, err
	}
	x = make([]float64, n)
	for i := 0; i < n; i++ {
		if w[i] <= 0 {
			continue
		}
		for j := 0; j < m; j++ {
			x[i] += nu[j] * all[j].a[i] / (2 * w[i])
		}
	}
	return x, nu[len(eqs):], nil
}

// solveLinear solves a small dense linear system by Gaussian elimination
// with partial pivoting.
func solveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-14 {
			return nil, fmt.Errorf("estimator: singular KKT system (degenerate active set)")
		}
		m[col], m[piv] = m[piv], m[col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = m[i][n] / m[i][i]
	}
	return out, nil
}

func dot(a, x []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * x[i]
	}
	return s
}

func contains(ks []string, k string) bool {
	for _, s := range ks {
		if s == k {
			return true
		}
	}
	return false
}

// UasOrder is the §4.2 processing order behind max^(Uas): the zero vector,
// then vectors whose only positive entries are a prefix (entry 1 first),
// then the rest — within groups by number of positive entries. For r = 2:
// 0, then (x, 0), then (0, y), then two-positive vectors.
//
//summarylint:ignore §4.2 max^(Uas) order, pinned by TestDerivePlusMatchesUas; bench_test.go (BenchmarkDerivePlusBinaryR3) shares it
func UasOrder(a, b []float64) bool {
	ra, rb := uasRank(a), uasRank(b)
	return ra < rb
}

func uasRank(v []float64) int {
	pos := positives(v)
	if pos == 0 {
		return 0
	}
	if pos < len(v) {
		// Sparse vectors ordered by the index of their first positive
		// entry: (x,0,…) before (0,y,…).
		first := 0
		for i, x := range v {
			if x > 0 {
				first = i
				break
			}
		}
		return 1 + first
	}
	return 1 + len(v) + pos
}

// String renders a derived estimator's table for debugging and docs.
func (d *Derived) String() string {
	keys := make([]string, 0, len(d.estimate))
	for k := range d.estimate {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%-24s %.6g\n", k, d.estimate[k])
	}
	return b.String()
}
