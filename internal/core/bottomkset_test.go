package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/simdata"
)

// TestSummarizeSetBottomKBasics: sizes, threshold semantics.
func TestSummarizeSetBottomKBasics(t *testing.T) {
	members := make(map[dataset.Key]bool)
	for k := dataset.Key(1); k <= 100; k++ {
		members[k] = true
	}
	s := NewSummarizer(4)
	sum := s.SummarizeSetBottomK(0, members, 10)
	if sum.Size() != 10 {
		t.Fatalf("summary size %d, want 10", sum.Size())
	}
	if !(sum.SetP() > 0 && sum.SetP() < 1) {
		t.Fatalf("threshold P = %v", sum.SetP())
	}
	// Every retained member's seed is below P; every excluded member's is
	// above.
	for h := range members {
		u := s.seeder.Seed(0, uint64(h))
		if sum.Contains(h) != (u < sum.SetP()) {
			t.Fatalf("key %d inconsistent with threshold", h)
		}
	}
	// Undersized set: everything kept, P = 1.
	small := map[dataset.Key]bool{1: true, 2: true}
	sumSmall := s.SummarizeSetBottomK(0, small, 10)
	if sumSmall.Size() != 2 || sumSmall.SetP() != 1 {
		t.Fatalf("undersized summary: len=%d P=%v", sumSmall.Size(), sumSmall.SetP())
	}
}

// TestBottomKDistinctUnbiased: distinct-count estimates over bottom-k set
// summaries remain unbiased (rank conditioning, §8.1).
func TestBottomKDistinctUnbiased(t *testing.T) {
	logs := simdata.RequestLog(3000, 2, 0.25, 21)
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
	const trials = 3000
	var sumHT, sumL float64
	for i := 0; i < trials; i++ {
		s := NewSummarizer(uint64(i) * 17)
		s1 := s.SummarizeSetBottomK(0, logs[0], 100)
		s2 := s.SummarizeSetBottomK(1, logs[1], 100)
		est, err := DistinctCountReaders(s1, s2, nil)
		if err != nil {
			t.Fatal(err)
		}
		sumHT += est.HT
		sumL += est.L
	}
	if got := sumHT / trials; math.Abs(got-truth)/truth > 0.05 {
		t.Errorf("HT mean %v, want %v", got, truth)
	}
	if got := sumL / trials; math.Abs(got-truth)/truth > 0.03 {
		t.Errorf("L mean %v, want %v", got, truth)
	}
}

// TestBottomKDistinctLBeatsHT: the partial-information advantage carries
// over from Poisson to bottom-k summaries.
func TestBottomKDistinctLBeatsHT(t *testing.T) {
	logs := simdata.RequestLog(3000, 2, 0.25, 33)
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
	var mseHT, mseL float64
	const trials = 2000
	for i := 0; i < trials; i++ {
		s := NewSummarizer(7777 + uint64(i))
		est, err := DistinctCountReaders(
			s.SummarizeSetBottomK(0, logs[0], 80),
			s.SummarizeSetBottomK(1, logs[1], 80), nil)
		if err != nil {
			t.Fatal(err)
		}
		mseHT += (est.HT - truth) * (est.HT - truth)
		mseL += (est.L - truth) * (est.L - truth)
	}
	if mseL >= mseHT {
		t.Errorf("L MSE %v not below HT MSE %v", mseL/trials, mseHT/trials)
	}
	if ratio := mseHT / mseL; ratio < 1.5 {
		t.Errorf("MSE ratio %v, expected a clear win", ratio)
	}
}

func TestSummarizeSetBottomKPanics(t *testing.T) {
	s := NewSummarizer(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for k=0")
		}
	}()
	s.SummarizeSetBottomK(0, map[dataset.Key]bool{1: true}, 0)
}
