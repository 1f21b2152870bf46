package experiments

import "repro/internal/estimator"

// figure2 reproduces Figure 2: the variance of OR^(HT), OR^(L) and OR^(U)
// on data vectors (1,1) and (1,0) as a function of p = p1 = p2, by exact
// outcome enumeration.
func figure2() *Table {
	t := &Table{
		ID:     "figure2",
		Title:  "variance of OR estimators vs p=p1=p2 (exact)",
		Header: []string{"p", "HT(1,0)=(1,1)", "L(1,1)", "L(1,0)", "U(1,1)", "U(1,0)"},
	}
	for _, p := range []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		ps := []float64{p, p}
		_, l11 := estimator.ObliviousMoments(ps, []float64{1, 1}, estimator.ORL2)
		_, l10 := estimator.ObliviousMoments(ps, []float64{1, 0}, estimator.ORL2)
		_, u11 := estimator.ObliviousMoments(ps, []float64{1, 1}, estimator.ORU2)
		_, u10 := estimator.ObliviousMoments(ps, []float64{1, 0}, estimator.ORU2)
		t.addRow(p, estimator.VarORHT(ps), l11, l10, u11, u10)
	}
	return t
}
