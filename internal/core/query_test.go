package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/estimator"
	"repro/internal/randx"
	"repro/internal/sampling"
)

// threeSets builds three overlapping member sets over a shared universe.
func threeSets(n int) []map[dataset.Key]bool {
	rng := randx.New(5)
	sets := make([]map[dataset.Key]bool, 3)
	for i := range sets {
		sets[i] = make(map[dataset.Key]bool)
	}
	for k := 1; k <= n; k++ {
		h := dataset.Key(k)
		placed := false
		for i := range sets {
			if rng.Float64() < 0.6 {
				sets[i][h] = true
				placed = true
			}
		}
		if !placed {
			sets[rng.Intn(3)][h] = true
		}
	}
	return sets
}

// TestDistinctCountMultiMatchesFullSetOracle: the summary-level r = 3
// distinct count must agree with the per-key OR^(HT)/OR^(L) estimates
// computed from the full sets — the summaries carry all the information
// the estimator consumes.
func TestDistinctCountMultiMatchesFullSetOracle(t *testing.T) {
	const n, p = 2000, 0.3
	sets := threeSets(n)
	s := NewSummarizer(2011)
	sums := make([]SetReader, 3)
	for i, set := range sets {
		sums[i] = s.SummarizeSet(i, set, p)
	}
	got, err := DistinctCountMultiReaders(sums, nil)
	if err != nil {
		t.Fatal(err)
	}
	orl, err := estimator.ORLUniform(3, p)
	if err != nil {
		t.Fatal(err)
	}
	// threeSets places every key of 1..n in some set, so that range is the
	// union, walked in ascending order.
	var want MultiDistinctEstimate
	for k := uint64(1); k <= n; k++ {
		o := estimator.BinaryKnownSeedsOutcome{P: []float64{p, p, p}, U: make([]float64, 3), Sampled: make([]bool, 3)}
		sampled, allSeedsLow := false, true
		for i, set := range sets {
			o.U[i] = s.seeder.Seed(i, k)
			o.Sampled[i] = set[dataset.Key(k)] && o.U[i] < p
			sampled = sampled || o.Sampled[i]
			allSeedsLow = allSeedsLow && o.U[i] < p
		}
		if !sampled {
			continue
		}
		want.KeysUsed++
		want.L += orl.Estimate(o.ToOblivious())
		if allSeedsLow {
			want.HT += 1 / (p * p * p)
		}
	}
	if math.Abs(got.HT-want.HT) > 1e-9*(1+want.HT) {
		t.Errorf("HT = %v, full-set oracle says %v", got.HT, want.HT)
	}
	if math.Abs(got.L-want.L) > 1e-9*(1+want.L) {
		t.Errorf("L = %v, full-set oracle says %v", got.L, want.L)
	}
	if got.KeysUsed != want.KeysUsed {
		t.Errorf("KeysUsed = %d, full-set oracle sampled %d", got.KeysUsed, want.KeysUsed)
	}
}

// TestDistinctCountMultiPairDelegation: r = 2 must reproduce the §8.1 pair
// estimator exactly, including differing sampling probabilities.
func TestDistinctCountMultiPairDelegation(t *testing.T) {
	sets := threeSets(1000)
	s := NewSummarizer(17)
	s1 := s.SummarizeSet(0, sets[0], 0.25)
	s2 := s.SummarizeSet(1, sets[1], 0.4)
	want, err := DistinctCountReaders(s1, s2, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DistinctCountMultiReaders([]SetReader{s1, s2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.HT != want.HT || got.L != want.L {
		t.Errorf("pair delegation drifted: (%v, %v) vs (%v, %v)", got.HT, got.L, want.HT, want.L)
	}
}

// TestDistinctCountMultiRejects: incompatible summary combinations fail
// loudly.
func TestDistinctCountMultiRejects(t *testing.T) {
	sets := threeSets(100)
	s := NewSummarizer(1)
	other := NewSummarizer(2)
	a := s.SummarizeSet(0, sets[0], 0.5)
	b := s.SummarizeSet(1, sets[1], 0.5)
	c := s.SummarizeSet(2, sets[2], 0.25)

	if _, err := DistinctCountMultiReaders([]SetReader{a}, nil); err == nil {
		t.Error("single summary accepted")
	}
	if _, err := DistinctCountMultiReaders([]SetReader{a, other.SummarizeSet(1, sets[1], 0.5)}, nil); err == nil {
		t.Error("mixed randomizations accepted")
	}
	if _, err := DistinctCountMultiReaders([]SetReader{a, s.SummarizeSet(0, sets[1], 0.5)}, nil); err == nil {
		t.Error("duplicate instance accepted")
	}
	if _, err := DistinctCountMultiReaders([]SetReader{a, b, c}, nil); err == nil {
		t.Error("non-uniform p accepted for r = 3")
	}
}

// TestQuantilePPS: the query helper must evaluate LthHTPPS on exactly the
// outcome the summaries encode.
func TestQuantilePPS(t *testing.T) {
	in := []dataset.Instance{
		{1: 50, 2: 3, 3: 7},
		{1: 40, 2: 9},
		{1: 60, 3: 2},
	}
	s := NewSummarizer(123)
	taus := []float64{20, 25, 30}
	sums := make([]PPSReader, 3)
	for i := range in {
		sums[i] = s.SummarizePPS(i, in[i], taus[i])
	}
	for _, h := range []dataset.Key{1, 2, 3} {
		for l := 1; l <= 3; l++ {
			got, err := QuantilePPSReaders(sums, h, l)
			if err != nil {
				t.Fatal(err)
			}
			o := estimator.PPSOutcome{
				Tau:     taus,
				U:       make([]float64, 3),
				Sampled: make([]bool, 3),
				Values:  make([]float64, 3),
			}
			for i := range sums {
				o.U[i] = s.seeder.Seed(i, uint64(h))
				if v, ok := sums[i].Lookup(h); ok {
					o.Sampled[i], o.Values[i] = true, v
				}
			}
			if want := estimator.LthHTPPS(o, l); got.HT != want {
				t.Errorf("key %d, l=%d: HT = %v, want %v", h, l, got.HT, want)
			}
		}
	}
	// Key 1 is far above every threshold: sampled everywhere, so the
	// median is determined and the estimate equals it exactly.
	got, err := QuantilePPSReaders(sums, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sampled != 3 || got.HT != 50 {
		t.Errorf("hot key: HT = %v (sampled %d), want 50 (sampled 3)", got.HT, got.Sampled)
	}
	if _, err := QuantilePPSReaders(sums, 1, 4); err == nil {
		t.Error("out-of-range quantile index accepted")
	}
	if _, err := QuantilePPSReaders(sums[:1], 1, 1); err == nil {
		t.Error("single summary accepted")
	}
}

// TestQueryDeterminism: repeated queries over the same summaries must be
// bit-identical — the reproducibility contract the summary server
// advertises.
func TestQueryDeterminism(t *testing.T) {
	sets := threeSets(3000)
	s := NewSummarizer(31)
	sums := make([]SetReader, 3)
	ws := make([]*PPSSummary, 2)
	for i, set := range sets {
		sums[i] = s.SummarizeSet(i, set, 0.3)
	}
	for i := 0; i < 2; i++ {
		in := make(dataset.Instance, len(sets[i]))
		rng := randx.New(uint64(i))
		for h := range sets[i] {
			in[h] = math.Floor(1 + 30*rng.Float64())
		}
		ws[i] = s.SummarizePPS(i, in, sampling.TauForExpectedSize(in, 200))
	}
	d1, err := DistinctCountMultiReaders(sums, nil)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := MaxDominanceReaders(ws[0], ws[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		d2, _ := DistinctCountMultiReaders(sums, nil)
		m2, _ := MaxDominanceReaders(ws[0], ws[1], nil)
		if d2 != d1 || m2 != m1 {
			t.Fatalf("query results drifted between runs: %+v vs %+v, %+v vs %+v", d2, d1, m2, m1)
		}
	}
}

// TestNonPositiveTauRefused: inclusion probabilities min(1, v/τ) are
// undefined at τ ≤ 0, so every PPS query over such a summary is a typed
// refusal and the sum has no error bound — never a silent "exact".
func TestNonPositiveTauRefused(t *testing.T) {
	s := NewSummarizer(5)
	pps := func(instance int, tau float64) *PPSSummary {
		return newPPSSummary(s.seeder, instance, tau, []sampling.Pair{{Key: 1, Value: 2}, {Key: 3, Value: 4}})
	}
	good := pps(0, 3)
	for _, tau := range []float64{0, -2, math.NaN()} { // NaN: both guards are !(tau > 0)
		bad := pps(1, tau)
		want := fmt.Sprintf("core: summary of instance 1 has non-positive tau %v", tau)
		for name, pair := range map[string][2]PPSReader{"first": {bad, good}, "second": {good, bad}} {
			if _, err := MaxDominanceReaders(pair[0], pair[1], nil); err == nil || err.Error() != want {
				t.Errorf("tau %v %s: MaxDominanceReaders error %v, want %q", tau, name, err, want)
			}
			if _, err := QuantilePPSReaders(pair[:], 1, 1); err == nil || err.Error() != want {
				t.Errorf("tau %v %s: QuantilePPSReaders error %v, want %q", tau, name, err, want)
			}
		}
		if stderr, ok := SumStdErr(bad, bad.SubsetSum(nil)); ok || stderr != 0 {
			t.Errorf("tau %v: SumStdErr = (%v, %v), want (0, false)", tau, stderr, ok)
		}
	}
	if _, err := MaxDominanceReaders(good, pps(1, 3), nil); err != nil {
		t.Errorf("positive tau refused: %v", err)
	}
	if stderr, ok := SumStdErr(good, good.SubsetSum(nil)); !ok || !(stderr > 0) {
		t.Errorf("positive tau: SumStdErr = (%v, %v), want a positive bound", stderr, ok)
	}
}
