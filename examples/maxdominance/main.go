// Max-dominance over IP traffic (§8.2): estimate Σ_h max(v1(h), v2(h)) —
// the worst-case per-destination flow volume across two hours — from
// independent PPS samples of each hour.
//
// The workload is the synthetic substitute for the paper's proprietary
// hourly flow logs (substitution S1; see the internal/simdata package
// doc), calibrated to the published statistics: ~24.5k destinations per
// hour, 38k distinct overall, ~5.5e5 flows per hour, Σmax ≈ 7.47e5.
//
// Run with: go run ./examples/maxdominance (its output is pinned by
// testdata/maxdominance.golden; go test ./examples/maxdominance -update re-records it).
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/sampling"
	"repro/internal/simdata"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run samples the two traffic hours and writes the max-dominance report
// to w.
func run(w io.Writer) error {
	m := simdata.Generate(simdata.PaperTraffic())
	truth := m.SumAggregate(dataset.Max, nil)
	fmt.Fprintf(w, "workload: %d + %d destinations (%d distinct), flows %.3g / %.3g, Σmax = %.4g\n\n",
		len(m.Instances[0]), len(m.Instances[1]), len(m.Keys()),
		m.Instances[0].Total(), m.Instances[1].Total(), truth)

	// Sample 2% of each hour's destinations (PPS: heavy destinations are
	// kept with probability 1).
	const fraction = 0.02
	tau1 := sampling.TauForExpectedSize(m.Instances[0], fraction*float64(len(m.Instances[0])))
	tau2 := sampling.TauForExpectedSize(m.Instances[1], fraction*float64(len(m.Instances[1])))

	s := core.NewSummarizer(8)
	s1 := s.SummarizePPS(0, m.Instances[0], tau1)
	s2 := s.SummarizePPS(1, m.Instances[1], tau2)
	res, err := core.MaxDominanceReaders(s1, s2, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "one draw at %.0f%% sampling (%d + %d keys kept):\n", fraction*100, s1.Size(), s2.Size())
	fmt.Fprintf(w, "  HT = %.4g (%.1f%% error)\n", res.HT, 100*rel(res.HT, truth))
	fmt.Fprintf(w, "  L  = %.4g (%.1f%% error)\n\n", res.L, 100*rel(res.L, truth))

	// Exact variances via per-key seed-space integration (Figure 7's
	// machinery) — no Monte Carlo noise.
	varHT, varL, total := experiments.DominanceVariance(m, tau1, tau2, 48)
	fmt.Fprintf(w, "exact normalized variances at %.0f%% sampling:\n", fraction*100)
	fmt.Fprintf(w, "  var[HT]/mu² = %.3g\n", stats.NormalizedVar(varHT, total))
	fmt.Fprintf(w, "  var[L]/mu²  = %.3g\n", stats.NormalizedVar(varL, total))
	fmt.Fprintf(w, "  ratio       = %.2f  (paper band: 2.45–2.7)\n", varHT/varL)

	// Selection: restrict to the heavy destinations of hour 1.
	heavy := func(h dataset.Key) bool { return m.Instances[0][h] >= 100 }
	resH, err := core.MaxDominanceReaders(s1, s2, heavy)
	if err != nil {
		return err
	}
	truthH := m.SumAggregate(dataset.Max, heavy)
	fmt.Fprintf(w, "\nselected subset (hour-1 volume ≥ 100): truth %.4g, HT %.4g, L %.4g\n",
		truthH, resH.HT, resH.L)
	return nil
}

func rel(got, want float64) float64 {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}
