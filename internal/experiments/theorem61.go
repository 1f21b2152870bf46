package experiments

import "repro/internal/estimator"

// theorem61 reports the §6 impossibility result as a table: the forced
// estimate on the both-sampled outcome for OR over weighted samples with
// unknown seeds, which is negative exactly when p1 + p2 < 1.
func theorem61() *Table {
	t := &Table{
		ID:     "theorem6.1",
		Title:  "unknown seeds: forced OR estimator value on S={1,2} (negative ⇒ no nonnegative unbiased estimator)",
		Header: []string{"p1", "p2", "est(S={1,2})", "nonnegative estimator exists"},
	}
	for _, pp := range [][2]float64{
		{0.05, 0.05}, {0.1, 0.1}, {0.25, 0.25}, {0.4, 0.4}, {0.49, 0.49},
		{0.5, 0.5}, {0.6, 0.6}, {0.25, 0.8}, {0.9, 0.05}, {1, 1},
	} {
		s := estimator.SolveUnknownSeedsOR2(pp[0], pp[1])
		t.addRow(pp[0], pp[1], s.EstBoth, s.Feasible)
	}
	t.Notes = append(t.Notes,
		"With known seeds the OR^(L)/OR^(U) estimators exist for every p (Section 5.1) — knowledge of seeds strictly enlarges the feasible region.")
	return t
}
