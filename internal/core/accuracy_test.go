package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sampling"
)

// mcInstance builds a population of n keys with mildly varied weights
// (0.5 … 1.4) — the regime where the k-dependent CV bound is tight.
func mcInstance(n int) dataset.Instance {
	in := make(dataset.Instance, n)
	for i := 1; i <= n; i++ {
		in[dataset.Key(i)] = 0.5 + 0.1*float64(i%10)
	}
	return in
}

func TestBottomKDistinctExactWhenUnderfull(t *testing.T) {
	in := mcInstance(50)
	s := NewSummarizer(7)
	b := s.SummarizeBottomK(0, in, 100, sampling.EXP{})
	if !math.IsInf(b.RankTau(), 1) {
		t.Fatalf("underfull summary has finite tau %v", b.RankTau())
	}
	if got := BottomKDistinct(b); got != 50 {
		t.Fatalf("BottomKDistinct = %v, want exact 50", got)
	}
	stderr, ok := BottomKDistinctStdErr(b, 50)
	if !ok || stderr != 0 {
		t.Fatalf("underfull stderr = %v ok=%v, want exact 0", stderr, ok)
	}
}

// TestBottomKDistinctDrawnAndDecodedMatchReference: the estimate off a
// drawn summary's entries, and off the same summary after a v2 round trip,
// equals the one off a map-backed reference of the same sample; WireSize
// is the encoding's length.
func TestBottomKDistinctDrawnAndDecodedMatchReference(t *testing.T) {
	in := mcInstance(500)
	s := NewSummarizer(11)
	b := s.SummarizeBottomK(0, in, 40, sampling.PPS{})
	data, err := EncodeSummary(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSummary(data)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refBottomK{refWeighted{refSummary{0, s.seeder}, entryMap(b)}, sampling.PPS{}, b.RankTau()}
	want := bottomKDistinctRef(ref)
	if got := BottomKDistinct(b); got != want {
		t.Fatalf("drawn summary %v != map-backed reference %v", got, want)
	}
	if got := BottomKDistinct(dec.(BottomKReader)); got != want {
		t.Fatalf("decoded summary %v != map-backed reference %v", got, want)
	}
	if WireSize(b) != len(data) || WireSize(dec) != len(data) {
		t.Fatalf("WireSize = %d drawn, %d decoded; want %d", WireSize(b), WireSize(dec), len(data))
	}
}

// TestBottomKDistinctMonteCarlo: across independent randomizations the
// distinct estimator is unbiased, and BottomKDistinctStdErr reports no
// bound for a finite threshold — the sum's CV bound is not one for a count
// (TestConformance in internal/server has the numbers).
func TestBottomKDistinctMonteCarlo(t *testing.T) {
	const (
		n      = 400
		k      = 50
		trials = 400
	)
	in := mcInstance(n)
	for _, fam := range []sampling.RankFamily{sampling.EXP{}, sampling.PPS{}} {
		var sum float64
		for trial := 0; trial < trials; trial++ {
			s := NewSummarizer(0x9e3779b9<<8 + uint64(trial))
			b := s.SummarizeBottomK(0, in, k, fam)
			est := BottomKDistinct(b)
			sum += est
			if stderr, ok := BottomKDistinctStdErr(b, est); ok {
				t.Fatalf("%s trial %d: stderr %v reported for a finite threshold %v", fam.Name(), trial, stderr, b.RankTau())
			}
		}
		mean := sum / trials
		if relErr := math.Abs(mean-n) / n; relErr > 0.05 {
			t.Errorf("%s: mean estimate %v is %.1f%% off the true count %d",
				fam.Name(), mean, 100*relErr, n)
		}
	}
}

// TestPPSSumStdErrMonteCarlo pins the plug-in HT variance estimate for
// the PPS subset sum: the reported stderr must track the empirical
// spread, and the 95% interval must cover the true total.
func TestPPSSumStdErrMonteCarlo(t *testing.T) {
	const (
		n      = 300
		trials = 400
	)
	in := mcInstance(n)
	truth := 0.0
	for i := 1; i <= n; i++ {
		truth += in[dataset.Key(i)]
	}
	var sum, sumSq, stderrSum float64
	covered := 0
	for trial := 0; trial < trials; trial++ {
		s := NewSummarizer(0xabcdef<<8 + uint64(trial))
		p := s.SummarizePPS(0, in, sampling.TauForExpectedSize(in, 60))
		est := p.SubsetSum(nil)
		stderr, ok := SumStdErr(p, est)
		if !ok {
			t.Fatalf("trial %d: no stderr for pps sum", trial)
		}
		sum += est
		sumSq += est * est
		stderrSum += stderr
		if math.Abs(est-truth) <= CI95Z*stderr {
			covered++
		}
	}
	mean := sum / trials
	empSD := math.Sqrt(sumSq/trials - mean*mean)
	meanStderr := stderrSum / trials
	if relErr := math.Abs(mean-truth) / truth; relErr > 0.05 {
		t.Errorf("mean estimate %v is %.1f%% off the true sum %v", mean, 100*relErr, truth)
	}
	// The plug-in estimate should agree with the empirical SD within
	// Monte Carlo slack — not be off by a model error.
	if meanStderr < empSD*0.7 || meanStderr > empSD*1.4 {
		t.Errorf("mean reported stderr %v vs empirical SD %v", meanStderr, empSD)
	}
	if coverage := float64(covered) / trials; coverage < 0.90 {
		t.Errorf("ci95 covered the truth in only %.1f%% of trials", 100*coverage)
	}
}

func TestSumStdErrPerKind(t *testing.T) {
	in := mcInstance(200)
	s := NewSummarizer(21)

	set := s.SummarizeSet(0, map[dataset.Key]bool{1: true, 2: true, 3: true, 4: true}, 0.5)
	stderr, ok := SumStdErr(set, float64(set.Size())/0.5)
	want := math.Sqrt(float64(set.Size())*0.5) / 0.5
	if !ok || stderr != want {
		t.Errorf("set stderr = %v ok=%v, want %v", stderr, ok, want)
	}
	full := s.SummarizeSet(1, map[dataset.Key]bool{1: true, 2: true}, 1)
	if stderr, ok := SumStdErr(full, 2); !ok || stderr != 0 {
		t.Errorf("p=1 set stderr = %v ok=%v, want exact 0", stderr, ok)
	}

	b := s.SummarizeBottomK(0, in, 30, sampling.EXP{})
	est := b.SubsetSum(nil)
	stderr, ok = SumStdErr(b, est)
	if !ok || stderr != est/math.Sqrt(28) {
		t.Errorf("bottomk stderr = %v ok=%v, want %v", stderr, ok, est/math.Sqrt(28))
	}
	tiny := s.SummarizeBottomK(1, in, 2, sampling.EXP{})
	if _, ok := SumStdErr(tiny, tiny.SubsetSum(nil)); ok {
		t.Error("k=2 bottomk reported a bound; CV bound needs k > 2")
	}
}

func TestDistinctHTStdErr(t *testing.T) {
	s := NewSummarizer(5)
	members := map[dataset.Key]bool{}
	for i := 1; i <= 100; i++ {
		members[dataset.Key(i)] = true
	}
	a := s.SummarizeSet(0, members, 0.5)
	b := s.SummarizeSet(1, members, 0.5)
	stderr, ok := DistinctHTStdErr([]SetReader{a, b}, 80)
	if !ok {
		t.Fatal("no bound for valid set pair")
	}
	if want := math.Sqrt(80 * (1/0.25 - 1)); stderr != want {
		t.Errorf("stderr = %v, want %v", stderr, want)
	}
	if _, ok := DistinctHTStdErr(nil, 1); ok {
		t.Error("empty reader list reported a bound")
	}
	fullA := s.SummarizeSet(2, members, 1)
	fullB := s.SummarizeSet(3, members, 1)
	if stderr, ok := DistinctHTStdErr([]SetReader{fullA, fullB}, 100); !ok || stderr != 0 {
		t.Errorf("p=1 distinct stderr = %v ok=%v, want exact 0", stderr, ok)
	}
}
