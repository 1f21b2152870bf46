// Quickstart: summarize two instances independently, then answer a
// multi-instance query from the summaries alone.
//
// The scenario is the paper's worked example (Figure 5): three small
// instances of key→value data. We sample instances 1 and 2 with Poisson
// PPS under reproducible ("known") seeds and estimate the max-dominance
// norm Σ_h max(v1(h), v2(h)) with both the classical Horvitz–Thompson
// estimator and the paper's Pareto-optimal partial-information estimator
// max^(L).
//
// Run with: go run ./examples/quickstart (its output is pinned by
// testdata/quickstart.golden; go test ./examples/quickstart -update re-records it).
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run summarizes the Figure 5 instances and writes the one-draw and
// mean-squared-error report to w.
func run(w io.Writer) error {
	m := dataset.FigureFive()
	in1, in2 := m.Instances[0], m.Instances[1]
	truth := dataset.NewMatrix(in1, in2).SumAggregate(dataset.Max, nil)
	fmt.Fprintf(w, "data: %d keys across 2 instances, true max-dominance = %g\n\n", len(m.Keys()), truth)

	// One summarization pass per instance; tau=30 samples each key with probability v/30, so most
	// outcomes carry only partial information.
	s := core.NewSummarizer(2011)
	sum1 := s.SummarizePPS(0, in1, 30)
	sum2 := s.SummarizePPS(1, in2, 30)
	fmt.Fprintf(w, "summary sizes: instance 1 → %d keys, instance 2 → %d keys\n", sum1.Size(), sum2.Size())

	est, err := core.MaxDominanceReaders(sum1, sum2, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "one draw:  HT = %.2f   L = %.2f   (truth %g)\n\n", est.HT, est.L, truth)

	// The single draw above is noisy; average squared error over many hash
	// salts shows why the partial-information estimator matters.
	var seHT, seL stats.Welford
	for salt := uint64(0); salt < 20000; salt++ {
		s := core.NewSummarizer(salt)
		e, err := core.MaxDominanceReaders(s.SummarizePPS(0, in1, 30), s.SummarizePPS(1, in2, 30), nil)
		if err != nil {
			return err
		}
		seHT.Add((e.HT - truth) * (e.HT - truth))
		seL.Add((e.L - truth) * (e.L - truth))
	}
	fmt.Fprintf(w, "mean squared error over 20000 summarizations:\n")
	fmt.Fprintf(w, "  HT: %.1f\n", seHT.Mean())
	fmt.Fprintf(w, "  L:  %.1f   (%.2fx lower)\n", seL.Mean(), seHT.Mean()/seL.Mean())
	fmt.Fprintln(w, "\nThe L estimator uses partial information: when only one of the two")
	fmt.Fprintln(w, "values was sampled, the outcome still lower-bounds the maximum, and")
	fmt.Fprintln(w, "the known seed of the unsampled entry upper-bounds its value.")
	return nil
}
