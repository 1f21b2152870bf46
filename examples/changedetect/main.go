// Change detection across sensor snapshots: use multi-instance estimators
// to monitor a fleet of sensors from independently transmitted samples.
//
// Each snapshot is sampled on the sensor side (saving battery/bandwidth —
// the paper's dispersed-data constraint) with reproducible seeds. The
// monitoring station later answers two kinds of queries from the samples:
//
//   - activity: how many sensors reported a positive value in either of
//     two rounds (distinct count via OR estimators);
//   - drift: the max-dominance norm between rounds, whose growth against a
//     single round's total signals upward drift.
//
// Run with: go run ./examples/changedetect (its output is pinned by
// testdata/changedetect.golden; go test ./examples/changedetect -update re-records it).
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/simdata"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run samples the sensor rounds and writes the activity, drift and
// subset-sum report to w.
func run(w io.Writer) error {
	const sensors = 5000
	m := simdata.SensorSnapshots(sensors, 4, 0.35, 12)
	fmt.Fprintf(w, "fleet: %d sensors, 4 rounds, drifting readings\n\n", sensors)

	// Activity across rounds 1 and 4 (binary view: reading ≥ 50).
	active := func(in dataset.Instance) map[dataset.Key]bool {
		out := make(map[dataset.Key]bool)
		for h, v := range in {
			if v >= 50 {
				out[h] = true
			}
		}
		return out
	}
	a1, a4 := active(m.Instances[0]), active(m.Instances[3])
	truthUnion := 0.0
	seen := map[dataset.Key]bool{}
	for h := range a1 {
		seen[h] = true
		truthUnion++
	}
	for h := range a4 {
		if !seen[h] {
			truthUnion++
		}
	}
	s := core.NewSummarizer(99)
	d, err := core.DistinctCountReaders(s.SummarizeSet(0, a1, 0.1), s.SummarizeSet(3, a4, 0.1), nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sensors ≥50 in round 1 or 4: truth %g, HT %.0f, L %.0f (p=0.1)\n\n", truthUnion, d.HT, d.L)

	// Drift: Σmax between round pairs vs the base round total. A ratio
	// well above 1 on (1, t) indicates upward drift by round t.
	base := m.Instances[0].Total()
	for t := 1; t < 4; t++ {
		sum1 := s.SummarizePPSExpectedSize(0, m.Instances[0], 400)
		sumT := s.SummarizePPSExpectedSize(t, m.Instances[t], 400)
		est, err := core.MaxDominanceReaders(sum1, sumT, nil)
		if err != nil {
			return err
		}
		truth := dataset.NewMatrix(m.Instances[0], m.Instances[t]).SumAggregate(dataset.Max, nil)
		fmt.Fprintf(w, "rounds (1,%d): Σmax truth %.4g, L estimate %.4g, drift index %.3f\n",
			t+1, truth, est.L, est.L/base)
	}

	// A small accuracy check on a decomposable query (single-round subset
	// sum) over 500 salts.
	var est stats.Welford
	truthTotal := m.Instances[0].Total()
	for salt := uint64(0); salt < 500; salt++ {
		sz := core.NewSummarizer(salt)
		est.Add(sz.SummarizePPSExpectedSize(0, m.Instances[0], 400).SubsetSum(nil))
	}
	fmt.Fprintf(w, "\nround-1 total: truth %.4g, PPS subset-sum mean %.4g (cv %.3f)\n",
		truthTotal, est.Mean(), est.CV())
	return nil
}
