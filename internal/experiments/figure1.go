package experiments

import "repro/internal/estimator"

// figure1 reproduces Figure 1: the max estimators for r = 2 under
// weight-oblivious Poisson sampling with p1 = p2 = 1/2 — the outcome
// tables and the variance ratios VAR[L]/VAR[HT] and VAR[U]/VAR[HT] as a
// function of min(v)/max(v).
func figure1() []*Table {
	p := []float64{0.5, 0.5}

	table := &Table{
		ID:     "figure1-table",
		Title:  "max estimators on outcome S (v1=1, v2=m), p1=p2=1/2",
		Header: []string{"outcome", "maxHT", "maxL", "maxU"},
	}
	outcomes := []struct {
		name   string
		s1, s2 bool
	}{
		{"S=∅", false, false},
		{"S={1}", true, false},
		{"S={2}", false, true},
		{"S={1,2}", true, true},
	}
	const m = 0.25 // representative min/max ratio for the table
	for _, oc := range outcomes {
		o := estimator.ObliviousOutcome{P: p, Sampled: []bool{oc.s1, oc.s2}, Values: []float64{0, 0}}
		if oc.s1 {
			o.Values[0] = 1
		}
		if oc.s2 {
			o.Values[1] = m
		}
		table.addRow(oc.name,
			estimator.MaxHTOblivious(o),
			estimator.MaxL2(o),
			estimator.MaxU2(o))
	}

	ratios := &Table{
		ID:     "figure1-ratios",
		Title:  "variance ratios vs min/max, p1=p2=1/2 (exact enumeration)",
		Header: []string{"min/max", "var[L]/var[HT]", "var[U]/var[HT]"},
		Notes: []string{
			"var[U] follows the paper's outcome table; Figure 1's printed var[U] closed form is inconsistent with that table (see EXPERIMENTS.md).",
		},
	}
	for i := 0; i <= 20; i++ {
		ratio := float64(i) / 20
		v := []float64{1, ratio}
		_, varHT := estimator.ObliviousMoments(p, v, estimator.MaxHTOblivious)
		_, varL := estimator.ObliviousMoments(p, v, estimator.MaxL2)
		_, varU := estimator.ObliviousMoments(p, v, estimator.MaxU2)
		ratios.addRow(ratio, varL/varHT, varU/varHT)
	}
	return []*Table{table, ratios}
}
