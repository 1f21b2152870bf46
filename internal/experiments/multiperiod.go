package experiments

import (
	"maps"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/simdata"
	"repro/internal/stats"
	"repro/internal/xhash"
)

// MultiPeriod extends §8.1 beyond two instances: distinct counts over r
// request-log periods, comparing the r-instance HT and OR^(L) estimators
// (independent samples, known seeds) against coordinated sampling. MSE is
// measured over many hash salts (deterministic Monte Carlo); the advantage
// of partial information grows with r because HT needs all r seeds below
// the threshold.
func MultiPeriod() *Table {
	t := &Table{
		ID:     "multiperiod",
		Title:  "distinct count over r periods, p=0.2: MSE over 1500 salts (lower is better)",
		Header: []string{"r", "union", "MSE HT", "MSE L", "HT/L", "MSE coordinated"},
		Notes: []string{
			"Extension experiment (not a paper figure): the §8.1 estimators generalized to r instances via the Theorem 4.2 machinery.",
		},
	}
	const p = 0.2
	const trials = 1500
	for _, r := range []int{2, 3, 4} {
		logs := simdata.RequestLog(4000, r, 0.25, 91)
		union := map[dataset.Key]bool{}
		for _, l := range logs {
			maps.Copy(union, l)
		}
		truth := float64(len(union))
		sums := make([]core.SetReader, r)
		var ht, l, coord stats.Welford
		for i := 0; i < trials; i++ {
			s := core.NewSummarizer(uint64(i))
			for j, set := range logs {
				sums[j] = s.SummarizeSet(j, set, p)
			}
			res, err := core.DistinctCountMultiReaders(sums, nil)
			if err != nil {
				panic(err) // r ≥ 2 summaries of one Summarizer at one p
			}
			ht.Add((res.HT - truth) * (res.HT - truth))
			l.Add((res.L - truth) * (res.L - truth))
			c := coordinatedDistinct(union, p, uint64(i))
			coord.Add((c - truth) * (c - truth))
		}
		t.AddRow(r, truth, ht.Mean(), l.Mean(), ht.Mean()/l.Mean(), coord.Mean())
	}
	return t
}

// coordinatedDistinct estimates |N1 ∪ … ∪ Nr| from shared-seed samples of
// the sets with common probability p, given their union: the §7.2 contrast
// to the independent-sample estimators of §8.1. With one shared seed u(h)
// per key, a key of the union is sampled in *every* set containing it
// exactly when u(h) < p, so the outcome reveals each such key's exact
// membership pattern — an "all or nothing" structure for which plain HT is
// optimal, with per-key variance 1/p − 1 instead of the independent-sample
// 1/p² − 1. The shared seed of key h under salt is Unit(Hash2(salt, h)):
// one hash per key, ignoring the instance.
func coordinatedDistinct(union map[dataset.Key]bool, p float64, salt uint64) float64 {
	count := 0
	for h := range union {
		if xhash.Unit(xhash.Hash2(salt, uint64(h))) < p {
			count++
		}
	}
	return float64(count) / p
}
