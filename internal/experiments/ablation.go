package experiments

import (
	"fmt"

	"repro/internal/estimator"
)

// Ablation quantifies the estimator design choices, with exact variances
// throughout:
//
//   - estimator family (HT vs L vs U vs Uas) across data profiles — the
//     Pareto trade between "values similar" and "values disjoint";
//   - symmetric U vs asymmetric Uas — what the symmetry requirement costs
//     on each side;
//   - known vs unknown seeds — the variance attainable with seeds against
//     the infeasibility (or HT-only fallback) without them.
func Ablation() []*Table {
	families := &Table{
		ID:     "ablation-families",
		Title:  "exact VAR of max estimators (r=2, weight-oblivious) by data profile",
		Header: []string{"p", "data", "HT", "L", "U", "Uas"},
	}
	for _, p := range []float64{0.2, 0.5} {
		ps := []float64{p, p}
		for _, d := range []struct {
			name string
			v    []float64
		}{
			{"equal (10,10)", []float64{10, 10}},
			{"close (10,8)", []float64{10, 8}},
			{"far (10,2)", []float64{10, 2}},
			{"disjoint (10,0)", []float64{10, 0}},
		} {
			_, ht := estimator.ObliviousMoments(ps, d.v, estimator.MaxHTOblivious)
			_, l := estimator.ObliviousMoments(ps, d.v, estimator.MaxL2)
			_, u := estimator.ObliviousMoments(ps, d.v, estimator.MaxU2)
			_, uas := estimator.ObliviousMoments(ps, d.v, estimator.MaxUAsym2)
			families.AddRow(p, d.name, ht, l, u, uas)
		}
	}

	seeds := &Table{
		ID:     "ablation-seeds",
		Title:  "known vs unknown seeds: OR over two weighted samples, exact VAR",
		Header: []string{"p", "data", "known (L)", "known (U)", "known (HT)", "unknown seeds"},
		Notes: []string{
			"\"unknown seeds\": the unique unbiased estimator; where infeasible (p1+p2<1) no nonnegative unbiased estimator exists (Theorem 6.1).",
			"For p1+p2 ≥ 1 the forced unknown-seed estimator coincides with OR^(U) on outcomes that reveal nothing extra (c = 0), so known (U) never loses to it; the known-seed L estimator additionally wins on the no-change vector (1,1).",
		},
	}
	for _, p := range []float64{0.2, 0.4, 0.5, 0.7} {
		ps := []float64{p, p}
		for _, d := range []struct {
			name string
			v    []float64
		}{{"(1,1)", []float64{1, 1}}, {"(1,0)", []float64{1, 0}}} {
			_, l := estimator.BinaryKnownSeedsMoments(ps, d.v, estimator.ORLKnownSeeds)
			_, u := estimator.BinaryKnownSeedsMoments(ps, d.v, estimator.ORUKnownSeeds)
			_, ht := estimator.BinaryKnownSeedsMoments(ps, d.v, estimator.ORHTKnownSeeds)
			sol := estimator.SolveUnknownSeedsOR2(p, p)
			unknown := "infeasible"
			if sol.Feasible {
				// Variance of the forced estimator by direct enumeration
				// over the weighted outcome distribution.
				unknown = fmt.Sprintf("%.6g", unknownSeedsVar(p, p, d.v, sol))
			}
			seeds.AddRow(p, d.name, l, u, ht, unknown)
		}
	}

	recur := &Table{
		ID:     "ablation-recurrence",
		Title:  "max^(L) coefficient structure vs r (uniform p=0.3): alpha1 and HT coefficient p^-r",
		Header: []string{"r", "alpha1", "p^-r", "alpha1/p^-r", "A_r"},
	}
	for r := 2; r <= 8; r++ {
		e, err := estimator.NewMaxLUniform(r, 0.3)
		if err != nil {
			panic(err) // r and p are valid by construction
		}
		a := e.Alpha()
		htc := 1.0
		for i := 0; i < r; i++ {
			htc /= 0.3
		}
		recur.AddRow(r, a[0], htc, a[0]/htc, e.PrefixSum(r))
	}
	return []*Table{families, seeds, recur}
}

// unknownSeedsVar computes the exact variance of the forced unknown-seed
// OR estimator on binary data v (outcome space: each positive entry
// sampled independently with its probability; zero entries never sampled).
func unknownSeedsVar(p1, p2 float64, v []float64, s estimator.UnknownSeedsOR2) float64 {
	q1, q2 := 0.0, 0.0
	if v[0] > 0 {
		q1 = p1
	}
	if v[1] > 0 {
		q2 = p2
	}
	var m1, m2 float64
	add := func(pr, x float64) {
		m1 += pr * x
		m2 += pr * x * x
	}
	add(q1*q2, s.EstBoth)
	add(q1*(1-q2), s.EstOne1)
	add((1-q1)*q2, s.EstOne2)
	add((1-q1)*(1-q2), s.EstEmpty)
	return m2 - m1*m1
}
