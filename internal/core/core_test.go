package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sampling"
	"repro/internal/simdata"
)

func TestMaxDominanceEndToEnd(t *testing.T) {
	m := simdata.Generate(simdata.TrafficConfig{
		SharedKeys: 120, Only1: 40, Only2: 40,
		Alpha: 1.4, MeanValue: 12, Jitter: 0.7, Seed: 6,
	})
	truth := m.SumAggregate(dataset.Max, nil)
	const trials = 2500
	var sumHT, sumL float64
	for i := 0; i < trials; i++ {
		s := NewSummarizer(uint64(i))
		s1 := s.SummarizePPSExpectedSize(0, m.Instances[0], 40)
		s2 := s.SummarizePPSExpectedSize(1, m.Instances[1], 40)
		res, err := MaxDominanceReaders(s1, s2, nil)
		if err != nil {
			t.Fatal(err)
		}
		sumHT += res.HT
		sumL += res.L
	}
	if got := sumHT / trials; math.Abs(got-truth)/truth > 0.06 {
		t.Errorf("HT mean %v, want %v", got, truth)
	}
	if got := sumL / trials; math.Abs(got-truth)/truth > 0.04 {
		t.Errorf("L mean %v, want %v", got, truth)
	}
}

func TestDistinctCountEndToEnd(t *testing.T) {
	logs := simdata.RequestLog(2000, 2, 0.25, 3)
	truth := 0.0
	seen := map[dataset.Key]bool{}
	for _, l := range logs {
		for h := range l {
			if !seen[h] {
				seen[h] = true
				truth++
			}
		}
	}
	const trials = 2500
	var sumHT, sumL float64
	for i := 0; i < trials; i++ {
		s := NewSummarizer(uint64(i) * 13)
		s1 := s.SummarizeSet(0, logs[0], 0.3)
		s2 := s.SummarizeSet(1, logs[1], 0.3)
		res, err := DistinctCountReaders(s1, s2, nil)
		if err != nil {
			t.Fatal(err)
		}
		sumHT += res.HT
		sumL += res.L
	}
	if got := sumHT / trials; math.Abs(got-truth)/truth > 0.04 {
		t.Errorf("HT mean %v, want %v", got, truth)
	}
	if got := sumL / trials; math.Abs(got-truth)/truth > 0.03 {
		t.Errorf("L mean %v, want %v", got, truth)
	}
}

func TestSummaryMisuse(t *testing.T) {
	in := dataset.FigureFive().Instances[0]
	a := NewSummarizer(1)
	b := NewSummarizer(2)
	s1 := a.SummarizePPS(0, in, 5)
	s2 := b.SummarizePPS(1, in, 5)
	if _, err := MaxDominanceReaders(s1, s2, nil); err == nil {
		t.Error("expected error for summaries from different summarizers")
	}
	s3 := a.SummarizePPS(0, in, 5)
	if _, err := MaxDominanceReaders(s1, s3, nil); err == nil {
		t.Error("expected error for duplicate instance index")
	}
	m1 := a.SummarizeSet(0, map[dataset.Key]bool{1: true}, 0.5)
	m2 := b.SummarizeSet(1, map[dataset.Key]bool{1: true}, 0.5)
	if _, err := DistinctCountReaders(m1, m2, nil); err == nil {
		t.Error("expected error for set summaries from different summarizers")
	}
	m3 := a.SummarizeSet(0, map[dataset.Key]bool{1: true}, 0.5)
	if _, err := DistinctCountReaders(m1, m3, nil); err == nil {
		t.Error("expected error for duplicate set instance index")
	}
}

func TestSubsetSumsAcrossSchemes(t *testing.T) {
	in := dataset.Instance{}
	total := 0.0
	for k := dataset.Key(1); k <= 100; k++ {
		v := float64(1 + k%13)
		in[k] = v
		total += v
	}
	const trials = 4000
	var pps, bk, bkExp float64
	for i := 0; i < trials; i++ {
		s := NewSummarizer(uint64(i) * 7)
		pps += s.SummarizePPSExpectedSize(0, in, 20).SubsetSum(nil)
		bk += s.SummarizeBottomK(0, in, 20, sampling.PPS{}).SubsetSum(nil)
		bkExp += s.SummarizeBottomK(0, in, 20, sampling.EXP{}).SubsetSum(nil)
	}
	for name, got := range map[string]float64{
		"pps": pps / trials, "priority": bk / trials, "swor": bkExp / trials,
	} {
		if math.Abs(got-total)/total > 0.03 {
			t.Errorf("%s subset-sum mean %v, want %v", name, got, total)
		}
	}
}

// TestKnownSeedAdvantage: the L estimator's squared error is lower than
// HT's across repeated summarizations (the paper's headline in one
// assertion).
func TestKnownSeedAdvantage(t *testing.T) {
	m := simdata.Generate(simdata.ScaledTraffic(100))
	truth := m.SumAggregate(dataset.Max, nil)
	var seHT, seL float64
	const trials = 1500
	for i := 0; i < trials; i++ {
		s := NewSummarizer(uint64(i) * 3)
		s1 := s.SummarizePPSExpectedSize(0, m.Instances[0], 60)
		s2 := s.SummarizePPSExpectedSize(1, m.Instances[1], 60)
		res, err := MaxDominanceReaders(s1, s2, nil)
		if err != nil {
			t.Fatal(err)
		}
		seHT += (res.HT - truth) * (res.HT - truth)
		seL += (res.L - truth) * (res.L - truth)
	}
	if seL >= seHT {
		t.Errorf("L MSE %v not below HT MSE %v", seL/trials, seHT/trials)
	}
	if ratio := seHT / seL; ratio < 1.5 {
		t.Errorf("MSE ratio %v, expected the known-seed estimator to win clearly", ratio)
	}
}
