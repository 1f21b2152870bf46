// Distinct count over two request logs (§8.1): estimate the number of
// distinct resources requested across two periods from independent
// known-seed samples of each period.
//
// This is the paper's motivating application for the OR estimators: with
// unknown seeds no unbiased nonnegative estimator exists at small sampling
// probabilities (Theorem 6.1); with known seeds the L estimator needs up to
// 2× fewer samples than Horvitz–Thompson for the same accuracy (Figure 6).
//
// Run with: go run ./examples/distinctcount (its output is pinned by
// testdata/distinctcount.golden; go test ./examples/distinctcount -update re-records it).
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/experiments"
	"repro/internal/simdata"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run samples the two request logs over 3000 salts and writes the
// distinct-count report to w.
func run(w io.Writer) error {
	logs := simdata.RequestLog(50000, 2, 0.3, 77)
	truth := 0.0
	inter := 0.0
	for h := range logs[0] {
		truth++
		if logs[1][h] {
			inter++
		}
	}
	for h := range logs[1] {
		if !logs[0][h] {
			truth++
		}
	}
	j := inter / truth
	fmt.Fprintf(w, "periods: |N1|=%d |N2|=%d, union=%g, Jaccard=%.3f\n\n", len(logs[0]), len(logs[1]), truth, j)

	const p = 0.05
	var errHT, errL stats.Welford
	var one core.DistinctEstimate
	for salt := uint64(0); salt < 3000; salt++ {
		s := core.NewSummarizer(salt)
		s1 := s.SummarizeSet(0, logs[0], p)
		s2 := s.SummarizeSet(1, logs[1], p)
		est, err := core.DistinctCountReaders(s1, s2, nil)
		if err != nil {
			return err
		}
		if salt == 0 {
			one = est
		}
		errHT.Add((est.HT - truth) * (est.HT - truth))
		errL.Add((est.L - truth) * (est.L - truth))
	}
	fmt.Fprintf(w, "sampling probability p=%.2f (≈%d keys kept per period)\n", p, int(p*float64(len(logs[0]))))
	fmt.Fprintf(w, "one draw:  HT = %.0f   L = %.0f   (truth %g)\n", one.HT, one.L, truth)
	fmt.Fprintf(w, "category tallies of that draw: %+v\n\n", one.Counts)

	fmt.Fprintf(w, "MSE over 3000 summarizations:  HT %.0f   L %.0f   (ratio %.2f)\n",
		errHT.Mean(), errL.Mean(), errHT.Mean()/errL.Mean())

	de := estimator.DistinctEstimator{P1: p, P2: p}
	fmt.Fprintf(w, "closed-form variances:         HT %.0f   L %.0f\n\n", de.VarHT(truth), de.VarL(truth, j))

	// How many samples would each estimator need for 10%% relative error?
	n := float64(len(logs[0]))
	pht := experiments.RequiredPHT(n, j, 0.1)
	pl := experiments.RequiredPL(n, j, 0.1)
	fmt.Fprintf(w, "sample size for cv=0.1:  HT %.0f keys,  L %.0f keys (%.0f%% of HT)\n",
		pht*n, pl*n, 100*pl/pht)

	// And the Theorem 6.1 contrast: without seeds, unbiasedness is
	// impossible at this p.
	sol := estimator.SolveUnknownSeedsOR2(p, p)
	fmt.Fprintf(w, "\nunknown seeds at p=%.2f: the unique unbiased estimator needs value %.0f\n", p, sol.EstBoth)
	fmt.Fprintln(w, "on the both-sampled outcome — negative, so no nonnegative unbiased")
	fmt.Fprintln(w, "estimator exists (Theorem 6.1). Known seeds are what make this work.")
	return nil
}
