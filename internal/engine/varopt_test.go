package engine

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/randx"
)

// varOptWorkload draws a fixed heavy-tailed instance for the VarOpt
// pipeline tests.
func varOptWorkload(n int) (dataset.Instance, float64, float64, func(dataset.Key) bool) {
	rng := randx.New(23)
	in := make(dataset.Instance, n)
	total, subsetTotal := 0.0, 0.0
	sel := func(h dataset.Key) bool { return h%3 == 0 }
	for i := 1; i <= n; i++ {
		h := dataset.Key(i)
		w := 1 + rng.Pareto(1, 1.4)
		in[h] = w
		total += w
		if sel(h) {
			subsetTotal += w
		}
	}
	return in, total, subsetTotal, sel
}

// TestVarOptEngineTotalExact: the merged reservoir preserves the exact
// stream total for every shard count — both merge levels preserve their
// input totals, so Σ adjusted equals Σ pushed bit-for-bit up to float
// accumulation.
func TestVarOptEngineTotalExact(t *testing.T) {
	in, total, _, _ := varOptWorkload(2000)
	for _, cfg := range []Config{
		{},
		{Parallel: true, Shards: 2},
		{Parallel: true, Shards: 4, Async: true},
	} {
		s := SummarizeVarOpt(in, 64, 99, cfg)
		if got := s.SubsetSum(nil); math.Abs(got-total) > 1e-6*total {
			t.Errorf("shards=%d: total %v, want %v", cfg.NumShards(), got, total)
		}
		if len(s.Adjusted) != 64 {
			t.Errorf("shards=%d: sample size %d, want 64", cfg.NumShards(), len(s.Adjusted))
		}
	}
}

// TestVarOptEngineUnbiasedAcrossShards: subset-sum estimates from the
// sharded VarOpt pipeline are unbiased for shard counts 1, 2, and 4 —
// the distributional shard-count invariance of the threshold-union merge
// (bitwise invariance is impossible: VarOpt draws true randomness).
func TestVarOptEngineUnbiasedAcrossShards(t *testing.T) {
	in, _, subsetTotal, sel := varOptWorkload(1200)
	const (
		k      = 48
		trials = 250
	)
	for _, shards := range []int{1, 2, 4} {
		cfg := Config{Parallel: shards > 1, Shards: shards}
		sum := 0.0
		for tr := 0; tr < trials; tr++ {
			s := SummarizeVarOpt(in, k, uint64(1000*shards+tr), cfg)
			sum += s.SubsetSum(sel)
		}
		mean := sum / trials
		if rel := math.Abs(mean-subsetTotal) / subsetTotal; rel > 0.05 {
			t.Errorf("shards=%d: subset mean %v, want %v (rel err %.3f)", shards, mean, subsetTotal, rel)
		}
	}
}
