package sampling

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/randx"
	"repro/internal/xhash"
)

func seedFuncFrom(seeder xhash.Seeder, instance int) SeedFunc {
	return func(h dataset.Key) float64 { return seeder.Seed(instance, uint64(h)) }
}

func TestRankFamilies(t *testing.T) {
	for _, fam := range []RankFamily{PPS{}, EXP{}} {
		if math.IsInf(fam.Rank(0.5, 0), 1) != true {
			t.Errorf("%s: zero weight should rank +inf", fam.Name())
		}
		if fam.InclusionProb(0, 1) != 0 {
			t.Errorf("%s: zero weight inclusion not 0", fam.Name())
		}
		if p := fam.InclusionProb(3, math.Inf(1)); p != 1 {
			t.Errorf("%s: infinite threshold inclusion = %v", fam.Name(), p)
		}
		// Rank is increasing in u and decreasing in w.
		if fam.Rank(0.2, 1) >= fam.Rank(0.8, 1) {
			t.Errorf("%s: rank not increasing in seed", fam.Name())
		}
		if fam.Rank(0.5, 1) <= fam.Rank(0.5, 10) {
			t.Errorf("%s: rank not decreasing in weight", fam.Name())
		}
	}
	// Closed forms.
	if p := (PPS{}).InclusionProb(2, 0.25); p != 0.5 {
		t.Errorf("PPS inclusion = %v, want 0.5", p)
	}
	if p := (EXP{}).InclusionProb(2, 0.25); math.Abs(p-(1-math.Exp(-0.5))) > 1e-12 {
		t.Errorf("EXP inclusion = %v", p)
	}
}

// TestRankInclusionConsistency: empirical PR[Rank(U,w) < tau] matches
// InclusionProb for both families.
func TestRankInclusionConsistency(t *testing.T) {
	rng := randx.New(31)
	for _, fam := range []RankFamily{PPS{}, EXP{}} {
		for _, w := range []float64{0.3, 1, 5} {
			for _, tau := range []float64{0.1, 0.5, 2} {
				const n = 100000
				hits := 0
				for i := 0; i < n; i++ {
					if fam.Rank(rng.Float64(), w) < tau {
						hits++
					}
				}
				want := fam.InclusionProb(w, tau)
				if got := float64(hits) / n; math.Abs(got-want) > 0.01 {
					t.Errorf("%s w=%v tau=%v: empirical %v, closed form %v", fam.Name(), w, tau, got, want)
				}
			}
		}
	}
}

func TestPoissonPPSInclusion(t *testing.T) {
	in := dataset.Instance{1: 10, 2: 1, 3: 0.1}
	tau := 5.0
	// Key 1 (v=10 ≥ tau) is always sampled; key 2 with prob 1/5; key 3
	// with prob 0.02.
	const trials = 50000
	counts := map[dataset.Key]int{}
	for i := 0; i < trials; i++ {
		seeder := xhash.Seeder{Salt: uint64(i)}
		s := streamPPS(in, tau, seedFuncFrom(seeder, 0))
		for _, e := range s.Entries {
			counts[e.Key]++
		}
	}
	if counts[1] != trials {
		t.Errorf("key 1 sampled %d/%d, want always", counts[1], trials)
	}
	if f := float64(counts[2]) / trials; math.Abs(f-0.2) > 0.01 {
		t.Errorf("key 2 frequency %v, want 0.2", f)
	}
	if f := float64(counts[3]) / trials; math.Abs(f-0.02) > 0.005 {
		t.Errorf("key 3 frequency %v, want 0.02", f)
	}
}

// TestSubsetSumUnbiased: the HT subset-sum estimate over Poisson PPS
// samples is unbiased.
func TestSubsetSumUnbiased(t *testing.T) {
	in := dataset.Instance{}
	rng := randx.New(5)
	total := 0.0
	for k := dataset.Key(1); k <= 50; k++ {
		v := math.Floor(rng.Pareto(2, 1.5))
		in[k] = v
		total += v
	}
	tau := TauForExpectedSize(in, 10)
	const trials = 30000
	sum := 0.0
	for i := 0; i < trials; i++ {
		seeder := xhash.Seeder{Salt: 1000 + uint64(i)}
		s := streamPPS(in, tau, seedFuncFrom(seeder, 0))
		sum += s.SubsetSum(nil)
	}
	mean := sum / trials
	if math.Abs(mean-total)/total > 0.02 {
		t.Errorf("PPS subset-sum mean %v, want %v", mean, total)
	}
}

func TestTauForExpectedSize(t *testing.T) {
	in := dataset.Instance{}
	rng := randx.New(77)
	for k := dataset.Key(1); k <= 200; k++ {
		in[k] = math.Floor(1 + rng.Pareto(1, 1.2))
	}
	for _, k := range []float64{1, 5, 20, 100, 199} {
		tau := TauForExpectedSize(in, k)
		got := 0.0
		for _, v := range in {
			got += math.Min(1, v/tau)
		}
		if math.Abs(got-k) > 1e-6*k {
			t.Errorf("k=%v: expected size %v", k, got)
		}
	}
	// Oversized k includes everything.
	tau := TauForExpectedSize(in, 1000)
	s := streamPPS(in, tau, func(dataset.Key) float64 { return 0.999999 })
	if len(s.Entries) != len(in) {
		t.Errorf("oversized k: sampled %d of %d", len(s.Entries), len(in))
	}
}

func TestBottomKBasics(t *testing.T) {
	in := dataset.FigureFive().Instances[0]
	seeder := xhash.Seeder{Salt: 123}
	s := streamBottomK(in, 3, PPS{}, seedFuncFrom(seeder, 0))
	if len(s.Entries) != 3 {
		t.Fatalf("sample size %d, want 3", len(s.Entries))
	}
	if math.IsInf(s.Tau, 1) {
		t.Fatal("tau should be finite with >k keys")
	}
	// All sampled ranks must be below tau.
	for _, e := range s.Entries {
		if r := (PPS{}).Rank(seeder.Seed(0, uint64(e.Key)), e.Value); r >= s.Tau {
			t.Errorf("sampled key %d rank %v ≥ tau %v", e.Key, r, s.Tau)
		}
	}
	// Small instance: everything sampled, exact estimates.
	tiny := dataset.Instance{1: 5, 2: 7}
	s2 := streamBottomK(tiny, 3, PPS{}, seedFuncFrom(seeder, 0))
	if len(s2.Entries) != 2 || !math.IsInf(s2.Tau, 1) {
		t.Fatalf("tiny sample: len=%d tau=%v", len(s2.Entries), s2.Tau)
	}
	if got := s2.SubsetSum(nil); got != 12 {
		t.Errorf("tiny subset sum = %v, want exact 12", got)
	}
}

// TestBottomKSubsetSumUnbiased verifies the rank-conditioning estimator for
// both priority (PPS) and SWOR (EXP) bottom-k sampling.
func TestBottomKSubsetSumUnbiased(t *testing.T) {
	in := dataset.Instance{}
	rng := randx.New(15)
	total := 0.0
	for k := dataset.Key(1); k <= 40; k++ {
		v := math.Floor(1 + rng.Pareto(1, 1.3))
		in[k] = v
		total += v
	}
	for _, fam := range []RankFamily{PPS{}, EXP{}} {
		const trials = 40000
		sum := 0.0
		for i := 0; i < trials; i++ {
			seeder := xhash.Seeder{Salt: uint64(i) * 31}
			s := streamBottomK(in, 8, fam, seedFuncFrom(seeder, 0))
			sum += s.SubsetSum(nil)
		}
		mean := sum / trials
		if math.Abs(mean-total)/total > 0.03 {
			t.Errorf("%s bottom-k mean %v, want %v", fam.Name(), mean, total)
		}
	}
}

// TestSharedSeedCoordination: with one seed function shared by both
// instances, identical instances yield identical bottom-k samples, and
// similar instances yield overlapping samples (§7.2).
func TestSharedSeedCoordination(t *testing.T) {
	in := dataset.Instance{}
	rng := randx.New(21)
	for k := dataset.Key(1); k <= 100; k++ {
		in[k] = math.Floor(1 + rng.Pareto(1, 1.5))
	}
	shared := func(h dataset.Key) float64 { return xhash.Unit(xhash.Hash2(9, uint64(h))) }
	s1 := streamBottomK(in, 10, PPS{}, shared)
	s2 := streamBottomK(in, 10, PPS{}, shared)
	if !sameSample(s1, s2) {
		t.Fatal("identical instances under shared seeds produced different samples")
	}
	// Independent seeds: overlap should be far below 10.
	indep := xhash.Seeder{Salt: 9}
	t1 := streamBottomK(in, 10, PPS{}, seedFuncFrom(indep, 0))
	t2 := streamBottomK(in, 10, PPS{}, seedFuncFrom(indep, 1))
	overlap := 0
	for _, e := range t1.Entries {
		if _, ok := lookup(t2, e.Key); ok {
			overlap++
		}
	}
	if overlap >= 9 {
		t.Errorf("independent samples overlap %d/10 — suspiciously coordinated", overlap)
	}
}

// TestInclusionProbQuick: inclusion probabilities are proper probabilities
// and monotone in weight.
func TestInclusionProbQuick(t *testing.T) {
	f := func(w1, w2, tau float64) bool {
		w1, w2, tau = math.Abs(w1), math.Abs(w2), math.Abs(tau)
		if w1 > w2 {
			w1, w2 = w2, w1
		}
		for _, fam := range []RankFamily{PPS{}, EXP{}} {
			p1 := fam.InclusionProb(w1, tau)
			p2 := fam.InclusionProb(w2, tau)
			if p1 < 0 || p1 > 1 || p2 < 0 || p2 > 1 || p1 > p2+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// streamBottomK draws the bottom-k sample of an instance by pushing it
// through a StreamBottomK.
func streamBottomK(in dataset.Instance, k int, fam RankFamily, seed SeedFunc) *WeightedSample {
	s := NewStreamBottomK(k, fam, seed)
	for h, v := range in {
		s.Push(h, v)
	}
	return s.Snapshot()
}

// streamPPS draws the Poisson PPS sample of an instance by pushing it
// through a StreamPoissonPPS.
func streamPPS(in dataset.Instance, tauStar float64, seed SeedFunc) *WeightedSample {
	s := NewStreamPoissonPPS(tauStar, seed)
	for h, v := range in {
		s.Push(h, v)
	}
	return s.Snapshot()
}
