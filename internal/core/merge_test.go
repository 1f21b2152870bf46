package core

import (
	"maps"
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/estimator"
	"repro/internal/sampling"
	"repro/internal/simdata"
)

// Statistical and exactness tests of the multi-instance merge kernels
// (maxDominanceMerge, categorizeMerge, distinctMerge) through the query
// functions that wrap them: unbiasedness under selection and unequal
// sampling rates, the partial-information advantage, exact answers at full
// sampling, and bit-identical answers however the summaries were drawn.

// moments accumulates a Monte Carlo mean and variance.
type moments struct{ n, sum, sum2 float64 }

func (m *moments) add(x float64) { m.n++; m.sum += x; m.sum2 += x * x }

func (m *moments) mean() float64 { return m.sum / m.n }

func (m *moments) variance() float64 { return m.sum2/m.n - m.mean()*m.mean() }

// near fails the test unless the Monte Carlo mean is within four standard
// errors of want.
func (m *moments) near(t *testing.T, name string, want float64) {
	t.Helper()
	se := math.Sqrt(m.variance() / m.n)
	if math.Abs(m.mean()-want) > 4*se+1e-9*math.Abs(want) {
		t.Errorf("%s mean %v, want %v (standard error %v)", name, m.mean(), want, se)
	}
}

// patternSets builds r member sets over keys 1..universe: the first
// overlap fraction of keys is in every set, the rest round-robin across
// the sets. It returns the sets and the size of their union.
func patternSets(r, universe int, overlap float64) ([]map[dataset.Key]bool, float64) {
	sets := make([]map[dataset.Key]bool, r)
	for i := range sets {
		sets[i] = make(map[dataset.Key]bool)
	}
	union := 0.0
	for k := 1; k <= universe; k++ {
		member := false
		for i := range sets {
			if float64(k) <= overlap*float64(universe) || k%r == i {
				sets[i][dataset.Key(k)] = true
				member = true
			}
		}
		if member {
			union++
		}
	}
	return sets, union
}

// spreadMatrix builds a two-instance matrix whose values span roughly
// 10^-30..10^30, so any change in summation order shows in the low bits.
func spreadMatrix(n int) *dataset.Matrix {
	in1 := make(dataset.Instance, n)
	in2 := make(dataset.Instance, n)
	for i := 0; i < n; i++ {
		h := dataset.Key(uint64(i)*2654435761 + 1)
		e := float64(i%61) - 30
		in1[h] = math.Pow(10, e) * float64(i%7+1)
		if i%3 != 0 {
			in2[h] = math.Pow(10, -e) * float64(i%5+1)
		}
	}
	return dataset.NewMatrix(in1, in2)
}

func even(h dataset.Key) bool { return h%2 == 0 }

// TestMaxDominanceSelection: at full sampling the selected max-dominance
// sum of the Figure 5 pair is exact — keys 2, 4, 6 give 10 + 20 + 10.
func TestMaxDominanceSelection(t *testing.T) {
	m := dataset.FigureFive()
	s := NewSummarizer(3)
	res, err := MaxDominanceReaders(s.SummarizePPS(0, m.Instances[0], 1e-9), s.SummarizePPS(1, m.Instances[1], 1e-9), even)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.HT-40) > 1e-9 || math.Abs(res.L-40) > 1e-9 {
		t.Errorf("full-sampling estimates (%v, %v), want 40", res.HT, res.L)
	}
	if res.KeysUsed != 3 {
		t.Errorf("KeysUsed %d, want 3", res.KeysUsed)
	}
}

// TestMaxDominanceSelectionUnbiased: under a selection both estimates are
// unbiased for the selected sum.
func TestMaxDominanceSelectionUnbiased(t *testing.T) {
	m := simdata.Generate(simdata.TrafficConfig{
		SharedKeys: 150, Only1: 60, Only2: 60,
		Alpha: 1.4, MeanValue: 15, Jitter: 0.8, Seed: 4,
	})
	truth := m.SumAggregate(dataset.Max, even)
	tau1 := sampling.TauForExpectedSize(m.Instances[0], 40)
	tau2 := sampling.TauForExpectedSize(m.Instances[1], 40)
	var ht, l moments
	for i := 0; i < 2000; i++ {
		s := NewSummarizer(uint64(i))
		res, err := MaxDominanceReaders(s.SummarizePPS(0, m.Instances[0], tau1), s.SummarizePPS(1, m.Instances[1], tau2), even)
		if err != nil {
			t.Fatal(err)
		}
		ht.add(res.HT)
		l.add(res.L)
	}
	ht.near(t, "HT", truth)
	l.near(t, "L", truth)
}

// TestMaxDominanceUnequalThresholds: the pair kernel stays unbiased, and L
// keeps its advantage, when one instance is sampled far more heavily than
// the other.
func TestMaxDominanceUnequalThresholds(t *testing.T) {
	m := simdata.Generate(simdata.TrafficConfig{
		SharedKeys: 120, Only1: 40, Only2: 40,
		Alpha: 1.5, MeanValue: 12, Jitter: 0.6, Seed: 15,
	})
	truth := m.SumAggregate(dataset.Max, nil)
	var ht, l moments
	for i := 0; i < 2000; i++ {
		s := NewSummarizer(500 + uint64(i))
		res, err := MaxDominanceReaders(s.SummarizePPSExpectedSize(0, m.Instances[0], 20), s.SummarizePPSExpectedSize(1, m.Instances[1], 80), nil)
		if err != nil {
			t.Fatal(err)
		}
		ht.add(res.HT)
		l.add(res.L)
	}
	ht.near(t, "HT", truth)
	l.near(t, "L", truth)
	if l.variance() >= ht.variance() {
		t.Errorf("L variance %v not below HT variance %v", l.variance(), ht.variance())
	}
}

// TestMaxDominanceDeterministicAcrossSummarizations: values spanning 60
// orders of magnitude give bit-identical answers whether the summaries are
// drawn in one shot or streamed through a sequential or sharded engine, by a
// fresh Summarizer each round.
func TestMaxDominanceDeterministicAcrossSummarizations(t *testing.T) {
	m := spreadMatrix(400)
	draw := func(cfg *engine.Config) MaxDominanceEstimate {
		s := NewSummarizer(12345)
		var sums [2]*PPSSummary
		for i := range sums {
			if cfg == nil {
				sums[i] = s.SummarizePPS(i, m.Instances[i], 1e-9)
				continue
			}
			st := s.StreamPPS(*cfg, i, 1e-9)
			for h, v := range m.Instances[i] {
				st.Push(h, v)
			}
			sums[i] = st.Close().(*PPSSummary)
		}
		res, err := MaxDominanceReaders(sums[0], sums[1], nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := draw(nil)
	if first.KeysUsed == 0 {
		t.Fatal("empty samples: test exercises nothing")
	}
	for i := 0; i < 10; i++ {
		cfg := engine.Config{}
		if i%2 == 1 {
			cfg = engine.Config{Parallel: true, Shards: 1 + i%4}
		}
		res := draw(&cfg)
		if math.Float64bits(res.HT) != math.Float64bits(first.HT) || math.Float64bits(res.L) != math.Float64bits(first.L) {
			t.Fatalf("round %d (%+v): (%x, %x), first gave (%x, %x)", i, cfg,
				math.Float64bits(res.HT), math.Float64bits(res.L), math.Float64bits(first.HT), math.Float64bits(first.L))
		}
	}
}

// TestMaxDominanceKeysUsed: KeysUsed counts the selected keys of the union
// of the two samples.
func TestMaxDominanceKeysUsed(t *testing.T) {
	m := simdata.Generate(simdata.ScaledTraffic(100))
	s := NewSummarizer(8)
	s1 := s.SummarizePPSExpectedSize(0, m.Instances[0], 50)
	s2 := s.SummarizePPSExpectedSize(1, m.Instances[1], 50)
	union := map[dataset.Key]bool{}
	for _, h := range append(s1.AppendKeys(nil), s2.AppendKeys(nil)...) {
		union[h] = true
	}
	selected := 0
	for h := range union {
		if even(h) {
			selected++
		}
	}
	for _, c := range []struct {
		sel  func(dataset.Key) bool
		want int
	}{{nil, len(union)}, {even, selected}} {
		res, err := MaxDominanceReaders(s1, s2, c.sel)
		if err != nil {
			t.Fatal(err)
		}
		if res.KeysUsed != c.want {
			t.Errorf("KeysUsed %d, want %d", res.KeysUsed, c.want)
		}
	}
}

// TestMaxDominanceFullSamplingExact: when every key is sampled in both
// instances, both estimates equal the true sum of maxima.
func TestMaxDominanceFullSamplingExact(t *testing.T) {
	m := simdata.Generate(simdata.ScaledTraffic(50))
	truth := m.SumAggregate(dataset.Max, nil)
	s := NewSummarizer(21)
	res, err := MaxDominanceReaders(s.SummarizePPS(0, m.Instances[0], 1e-12), s.SummarizePPS(1, m.Instances[1], 1e-12), nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.HT-truth) > 1e-9*truth || math.Abs(res.L-truth) > 1e-9*truth {
		t.Errorf("estimates (%v, %v), want %v", res.HT, res.L, truth)
	}
	if res.KeysUsed != len(m.Keys()) {
		t.Errorf("KeysUsed %d, want %d", res.KeysUsed, len(m.Keys()))
	}
}

// TestMaxDominanceSymmetric: max is symmetric, so swapping the summaries
// leaves both estimates unchanged.
func TestMaxDominanceSymmetric(t *testing.T) {
	m := simdata.Generate(simdata.ScaledTraffic(100))
	for salt := uint64(0); salt < 20; salt++ {
		s := NewSummarizer(salt)
		s1 := s.SummarizePPSExpectedSize(0, m.Instances[0], 30)
		s2 := s.SummarizePPSExpectedSize(1, m.Instances[1], 60)
		a, err := MaxDominanceReaders(s1, s2, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := MaxDominanceReaders(s2, s1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.HT-b.HT) > 1e-9*(1+a.HT) || math.Abs(a.L-b.L) > 1e-9*(1+a.L) || a.KeysUsed != b.KeysUsed {
			t.Errorf("salt %d: %+v forward, %+v swapped", salt, a, b)
		}
	}
}

// TestDistinctCountSelection: a selection restricts the pair estimate to
// the matching keys.
func TestDistinctCountSelection(t *testing.T) {
	sets, _ := patternSets(2, 1000, 1)
	var l moments
	for i := 0; i < 2000; i++ {
		s := NewSummarizer(31 + uint64(i))
		res, err := DistinctCountReaders(s.SummarizeSet(0, sets[0], 0.5), s.SummarizeSet(1, sets[1], 0.5), even)
		if err != nil {
			t.Fatal(err)
		}
		l.add(res.L)
	}
	l.near(t, "selected L", 500)
}

// TestDistinctCountUnequalP: both pair estimates are unbiased when the two
// sets are sampled at different rates.
func TestDistinctCountUnequalP(t *testing.T) {
	n1 := map[dataset.Key]bool{}
	n2 := map[dataset.Key]bool{}
	for k := dataset.Key(1); k <= 300; k++ {
		if k <= 200 {
			n1[k] = true
		}
		if k > 100 {
			n2[k] = true
		}
	}
	var ht, l moments
	for i := 0; i < 3000; i++ {
		s := NewSummarizer(uint64(i))
		res, err := DistinctCountReaders(s.SummarizeSet(0, n1, 0.25), s.SummarizeSet(1, n2, 0.4), nil)
		if err != nil {
			t.Fatal(err)
		}
		ht.add(res.HT)
		l.add(res.L)
	}
	ht.near(t, "HT", 300)
	l.near(t, "L", 300)
}

// TestDistinctCountVarianceMatchesClosedForm: the spread of the pair
// estimates over salts matches the §8.1 closed-form variances.
func TestDistinctCountVarianceMatchesClosedForm(t *testing.T) {
	sets, union := patternSets(2, 400, 0.25)
	inter := 0.0
	for h := range sets[0] {
		if sets[1][h] {
			inter++
		}
	}
	const p = 0.3
	e := estimator.DistinctEstimator{P1: p, P2: p}
	var ht, l moments
	for i := 0; i < 5000; i++ {
		s := NewSummarizer(7777 + uint64(i))
		res, err := DistinctCountReaders(s.SummarizeSet(0, sets[0], p), s.SummarizeSet(1, sets[1], p), nil)
		if err != nil {
			t.Fatal(err)
		}
		ht.add(res.HT)
		l.add(res.L)
	}
	if got, want := ht.variance(), e.VarHT(union); math.Abs(got-want)/want > 0.08 {
		t.Errorf("HT variance: MC %v, closed form %v", got, want)
	}
	if got, want := l.variance(), e.VarL(union, inter/union); math.Abs(got-want)/want > 0.08 {
		t.Errorf("L variance: MC %v, closed form %v", got, want)
	}
}

// TestDistinctCountFullRateExact: at p = 1 every membership is revealed,
// so both pair estimates are the exact union size.
func TestDistinctCountFullRateExact(t *testing.T) {
	sets, union := patternSets(2, 500, 0.3)
	s := NewSummarizer(4)
	res, err := DistinctCountReaders(s.SummarizeSet(0, sets[0], 1), s.SummarizeSet(1, sets[1], 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.HT != union || res.L != union {
		t.Errorf("estimates (%v, %v), want %v", res.HT, res.L, union)
	}
	if c := res.Counts; c.F1Q != 0 || c.FQ1 != 0 {
		t.Errorf("unknown memberships at p = 1: %+v", c)
	}
}

// TestDistinctCountCountsMatchSamples: the category tallies agree with the
// sampled members — Cat11 is the samples' intersection, and every key of
// their union falls in exactly one non-empty category.
func TestDistinctCountCountsMatchSamples(t *testing.T) {
	sets, _ := patternSets(2, 2000, 0.4)
	s := NewSummarizer(19)
	s1 := s.SummarizeSet(0, sets[0], 0.3)
	s2 := s.SummarizeSet(1, sets[1], 0.45)
	res, err := DistinctCountReaders(s1, s2, nil)
	if err != nil {
		t.Fatal(err)
	}
	both, union := 0, map[dataset.Key]bool{}
	for _, h := range s1.AppendKeys(nil) {
		union[h] = true
		if s2.Contains(h) {
			both++
		}
	}
	for _, h := range s2.AppendKeys(nil) {
		union[h] = true
	}
	if res.Counts.F11 != both {
		t.Errorf("F11 = %d, samples share %d keys", res.Counts.F11, both)
	}
	if res.Counts.Sampled() != len(union) {
		t.Errorf("Sampled() = %d, sample union has %d keys", res.Counts.Sampled(), len(union))
	}
}

// TestDistinctCountMultiUnbiased: the r-instance distinct count is
// unbiased for r = 2, 3, 4.
func TestDistinctCountMultiUnbiased(t *testing.T) {
	for _, r := range []int{2, 3, 4} {
		sets, union := patternSets(r, 600, 0.3)
		sums := make([]SetReader, r)
		var ht, l moments
		for i := 0; i < 2000; i++ {
			s := NewSummarizer(uint64(i))
			for j, set := range sets {
				sums[j] = s.SummarizeSet(j, set, 0.3)
			}
			res, err := DistinctCountMultiReaders(sums, nil)
			if err != nil {
				t.Fatal(err)
			}
			ht.add(res.HT)
			l.add(res.L)
		}
		ht.near(t, "HT", union)
		l.near(t, "L", union)
	}
}

// TestDistinctCountMultiLBeatsHT: the L estimate's MSE is lower than HT's,
// and the gap widens with r (HT needs all r seeds below p).
func TestDistinctCountMultiLBeatsHT(t *testing.T) {
	prevRatio := 0.0
	for _, r := range []int{2, 3} {
		sets, union := patternSets(r, 600, 0.5)
		sums := make([]SetReader, r)
		var mseHT, mseL float64
		for i := 0; i < 1500; i++ {
			s := NewSummarizer(555 + uint64(i))
			for j, set := range sets {
				sums[j] = s.SummarizeSet(j, set, 0.3)
			}
			res, err := DistinctCountMultiReaders(sums, nil)
			if err != nil {
				t.Fatal(err)
			}
			mseHT += (res.HT - union) * (res.HT - union)
			mseL += (res.L - union) * (res.L - union)
		}
		if mseL >= mseHT {
			t.Errorf("r=%d: L MSE %v not below HT MSE %v", r, mseL, mseHT)
		}
		ratio := mseHT / mseL
		if ratio < prevRatio {
			t.Errorf("r=%d: advantage ratio %v below r-1's %v", r, ratio, prevRatio)
		}
		prevRatio = ratio
	}
}

// TestDistinctCountMultiSelection: a selection restricts the r = 3
// estimate to the matching keys.
func TestDistinctCountMultiSelection(t *testing.T) {
	sets, _ := patternSets(3, 900, 1)
	sums := make([]SetReader, 3)
	var l moments
	for i := 0; i < 1500; i++ {
		s := NewSummarizer(uint64(i) * 11)
		for j, set := range sets {
			sums[j] = s.SummarizeSet(j, set, 0.4)
		}
		res, err := DistinctCountMultiReaders(sums, even)
		if err != nil {
			t.Fatal(err)
		}
		l.add(res.L)
	}
	l.near(t, "selected L", 450)
}

// TestDistinctCountMultiDeterministicAcrossSummarizations: batch and
// streamed summaries of the same sets, streamed in either order, give
// bit-identical r = 3 answers.
func TestDistinctCountMultiDeterministicAcrossSummarizations(t *testing.T) {
	sets, _ := patternSets(3, 600, 0.2)
	batch := NewSummarizer(4242)
	want := make([]SetReader, 3)
	for j, set := range sets {
		want[j] = batch.SummarizeSet(j, set, 0.5)
	}
	first, err := DistinctCountMultiReaders(want, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.KeysUsed == 0 {
		t.Fatal("empty samples: test exercises nothing")
	}
	for _, reverse := range []bool{false, true} {
		s := NewSummarizer(4242)
		got := make([]SetReader, 3)
		for j, set := range sets {
			keys := slices.Sorted(maps.Keys(set))
			if reverse {
				slices.Reverse(keys)
			}
			st := s.StreamSet(j, 0.5)
			for _, h := range keys {
				st.Push(h)
			}
			got[j] = st.Close().(SetReader)
		}
		res, err := DistinctCountMultiReaders(got, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.HT) != math.Float64bits(first.HT) || math.Float64bits(res.L) != math.Float64bits(first.L) || res.KeysUsed != first.KeysUsed {
			t.Errorf("reverse=%v: %+v, batch gave %+v", reverse, res, first)
		}
	}
}

// TestDistinctCountMultiFullRateExact: at p = 1 every membership is
// revealed, so both r = 3 estimates are the exact union size.
func TestDistinctCountMultiFullRateExact(t *testing.T) {
	sets, union := patternSets(3, 500, 0.3)
	s := NewSummarizer(6)
	sums := make([]SetReader, 3)
	for j, set := range sets {
		sums[j] = s.SummarizeSet(j, set, 1)
	}
	res, err := DistinctCountMultiReaders(sums, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.HT-union) > 1e-9*union || math.Abs(res.L-union) > 1e-9*union {
		t.Errorf("estimates (%v, %v), want %v", res.HT, res.L, union)
	}
	if res.KeysUsed != int(union) {
		t.Errorf("KeysUsed %d, want %v", res.KeysUsed, union)
	}
}

// TestDistinctCountMultiKeysUsed: KeysUsed counts the selected keys of the
// union of the r samples.
func TestDistinctCountMultiKeysUsed(t *testing.T) {
	sets := threeSets(1500)
	s := NewSummarizer(77)
	sums := make([]SetReader, 3)
	union := map[dataset.Key]bool{}
	for j, set := range sets {
		sums[j] = s.SummarizeSet(j, set, 0.35)
		for _, h := range sums[j].AppendKeys(nil) {
			union[h] = true
		}
	}
	selected := 0
	for h := range union {
		if even(h) {
			selected++
		}
	}
	for _, c := range []struct {
		sel  func(dataset.Key) bool
		want int
	}{{nil, len(union)}, {even, selected}} {
		res, err := DistinctCountMultiReaders(sums, c.sel)
		if err != nil {
			t.Fatal(err)
		}
		if res.KeysUsed != c.want {
			t.Errorf("KeysUsed %d, want %d", res.KeysUsed, c.want)
		}
	}
}

// TestDistinctCountMultiOrderInvariant: the r = 3 estimate does not depend
// on the order the summaries are passed in.
func TestDistinctCountMultiOrderInvariant(t *testing.T) {
	sets := threeSets(1500)
	s := NewSummarizer(91)
	sums := make([]SetReader, 3)
	for j, set := range sets {
		sums[j] = s.SummarizeSet(j, set, 0.3)
	}
	want, err := DistinctCountMultiReaders(sums, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, perm := range [][3]int{{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		got, err := DistinctCountMultiReaders([]SetReader{sums[perm[0]], sums[perm[1]], sums[perm[2]]}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("order %v: %+v, want %+v", perm, got, want)
		}
	}
}
