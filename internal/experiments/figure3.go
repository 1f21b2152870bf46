package experiments

import "repro/internal/estimator"

// figure3 reproduces Figure 3: the max^(L) estimator for two independent
// PPS samples with known seeds, tabulated as a function of the determining
// vector across its four regimes, with the integrator's unbiasedness check
// alongside.
func figure3() *Table {
	t := &Table{
		ID:     "figure3",
		Title:  "max^(L) for PPS known seeds (determining-vector form) + unbiasedness check",
		Header: []string{"regime", "v1", "v2", "tau1", "tau2", "est(v)", "E[est] (integrated)", "max(v)"},
		Notes: []string{
			"The printed equation (30) of the paper has a typo in its log argument; the implementation integrates Appendix A directly (see EXPERIMENTS.md).",
		},
	}
	cases := []struct {
		regime         string
		v1, v2, t1, t2 float64
	}{
		{"v1≥v2≥tau2", 12, 8, 10, 5},
		{"v1≥tau1, v2≤min(tau2,v1)", 15, 2, 10, 20},
		{"v2≤v1≤min(tau1,tau2)", 3, 1, 10, 10},
		{"v2≤tau2≤v1≤tau1", 8, 1, 10, 5},
	}
	for _, c := range cases {
		est := estimator.MaxL2PPSDetermining(c.v1, c.v2, c.t1, c.t2)
		mean, _ := estimator.PPSMoments2([]float64{c.v1, c.v2}, []float64{c.t1, c.t2}, estimator.MaxL2PPS, 2048)
		mx := c.v1
		if c.v2 > mx {
			mx = c.v2
		}
		t.addRow(c.regime, c.v1, c.v2, c.t1, c.t2, est, mean, mx)
	}
	return t
}
