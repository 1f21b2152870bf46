package estimator

import (
	"fmt"
	"math"
)

// This file holds the small convex QP that the derivation engine
// (derive.go) solves for each constrained batch, by an active-set method,
// and the §4.2 order behind max^(Uas): with it, DerivePlus processes
// (v,0)-shaped vectors before (0,v)-shaped ones and reproduces the
// paper's asymmetric estimator — cross-validated in deriveplus_test.go.

// qpConstraint is one inequality a·x ≤ d.
type qpConstraint struct {
	a []float64
	d float64
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
