package experiments

import (
	"math"

	"repro/internal/estimator"
	"repro/internal/stats"
)

// figure6 reproduces Figure 6: the per-instance sample size s = p·n needed
// for the HT and L distinct-count estimators to reach a target coefficient
// of variation, as a function of the set size n, for several Jaccard
// coefficients — plus the ratio s(L)/s(HT).
func figure6() []*Table {
	js := []float64{0, 0.5, 0.9, 1}
	var tables []*Table
	for _, cv := range []float64{0.1, 0.02} {
		t := &Table{
			ID:     "figure6-size",
			Title:  "required sample size s vs n, cv=" + fmtG(cv),
			Header: []string{"n", "HT J=0", "HT J=0.5", "HT J=0.9", "HT J=1", "L J=0", "L J=0.5", "L J=0.9", "L J=1"},
		}
		r := &Table{
			ID:     "figure6-ratio",
			Title:  "s(L)/s(HT) vs n, cv=" + fmtG(cv),
			Header: []string{"n", "J=0", "J=0.5", "J=0.9", "J=1"},
		}
		for e := 2; e <= 10; e++ {
			n := math.Pow(10, float64(e))
			row := []interface{}{n}
			ratioRow := []interface{}{n}
			var hts, ls [4]float64
			for i, j := range js {
				hts[i] = RequiredPHT(n, j, cv) * n
				ls[i] = RequiredPL(n, j, cv) * n
			}
			for _, s := range hts {
				row = append(row, s)
			}
			for _, s := range ls {
				row = append(row, s)
			}
			for i := range js {
				if hts[i] > 0 {
					ratioRow = append(ratioRow, ls[i]/hts[i])
				} else {
					ratioRow = append(ratioRow, "n/a")
				}
			}
			t.addRow(row...)
			r.addRow(ratioRow...)
		}
		tables = append(tables, t, r)
	}
	return tables
}

// RequiredPHT returns the sampling probability p (p1 = p2 = p) needed for
// the HT distinct-count estimator to reach coefficient of variation cv on
// two sets of size n with Jaccard coefficient j (Figure 6 analysis):
// cv² = (1/p² − 1)/N with N = 2n/(1+j).
func RequiredPHT(n, j, cv float64) float64 {
	bigN := 2 * n / (1 + j)
	p := 1 / math.Sqrt(cv*cv*bigN+1)
	return math.Min(1, p)
}

// RequiredPL returns the sampling probability needed by the L estimator for
// the same target, solved by bisection on the exact per-key variances.
func RequiredPL(n, j, cv float64) float64 {
	bigN := 2 * n / (1 + j)
	cvAt := func(p float64) float64 {
		e := estimator.DistinctEstimator{P1: p, P2: p}
		return math.Sqrt(e.VarL(bigN, j)) / bigN
	}
	if cvAt(1) > cv {
		return 1
	}
	// cv(p) decreases in p; find the crossing.
	return stats.Bisect(1e-12, 1, 200, func(p float64) float64 {
		return cv - cvAt(p) // negative while cv(p) > target
	})
}
