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
		s := PoissonPPS(in, tau, seedFuncFrom(seeder, 0))
		for h := range s.Values {
			counts[h]++
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
		s := PoissonPPS(in, tau, seedFuncFrom(seeder, 0))
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
	s := PoissonPPS(in, tau, func(dataset.Key) float64 { return 0.999999 })
	if s.Len() != len(in) {
		t.Errorf("oversized k: sampled %d of %d", s.Len(), len(in))
	}
}

func TestBottomKBasics(t *testing.T) {
	in := dataset.FigureFive().Instances[0]
	seeder := xhash.Seeder{Salt: 123}
	s := BottomK(in, 3, PPS{}, seedFuncFrom(seeder, 0))
	if s.Len() != 3 {
		t.Fatalf("sample size %d, want 3", s.Len())
	}
	if math.IsInf(s.Tau, 1) {
		t.Fatal("tau should be finite with >k keys")
	}
	// All sampled ranks must be below tau.
	for h, v := range s.Values {
		if r := (PPS{}).Rank(seeder.Seed(0, uint64(h)), v); r >= s.Tau {
			t.Errorf("sampled key %d rank %v ≥ tau %v", h, r, s.Tau)
		}
	}
	// Small instance: everything sampled, exact estimates.
	tiny := dataset.Instance{1: 5, 2: 7}
	s2 := BottomK(tiny, 3, PPS{}, seedFuncFrom(seeder, 0))
	if s2.Len() != 2 || !math.IsInf(s2.Tau, 1) {
		t.Fatalf("tiny sample: len=%d tau=%v", s2.Len(), s2.Tau)
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
			s := BottomK(in, 8, fam, seedFuncFrom(seeder, 0))
			sum += s.SubsetSum(nil)
		}
		mean := sum / trials
		if math.Abs(mean-total)/total > 0.03 {
			t.Errorf("%s bottom-k mean %v, want %v", fam.Name(), mean, total)
		}
	}
}

// TestVarOptBasics: fixed size, threshold semantics, adjusted weights.
func TestVarOptBasics(t *testing.T) {
	rng := randx.New(3)
	vo := NewVarOpt(5, rng)
	in := dataset.Instance{}
	total := 0.0
	r2 := randx.New(8)
	for k := dataset.Key(1); k <= 100; k++ {
		v := math.Floor(1 + r2.Pareto(1, 1.4))
		in[k] = v
		total += v
	}
	for h, v := range in {
		vo.Add(h, v)
	}
	if vo.Len() != 5 {
		t.Fatalf("reservoir size %d, want 5", vo.Len())
	}
	s := vo.Sample()
	if len(s.Adjusted) != 5 {
		t.Fatalf("sample size %d", len(s.Adjusted))
	}
	for h, aw := range s.Adjusted {
		if aw < s.Original[h]-1e-9 || aw < s.Tau-1e-9 {
			t.Errorf("adjusted weight %v below max(original %v, tau %v)", aw, s.Original[h], s.Tau)
		}
	}
	// Adding non-positive weights is a no-op.
	before := vo.Len()
	vo.Add(999, 0)
	vo.Add(998, -3)
	if vo.Len() != before {
		t.Error("non-positive weights changed the reservoir")
	}
}

// TestVarOptUnbiased: the adjusted-weight total is an unbiased estimate of
// the stream total.
func TestVarOptUnbiased(t *testing.T) {
	in := dataset.Instance{}
	rng := randx.New(55)
	total := 0.0
	keys := make([]dataset.Key, 0, 60)
	for k := dataset.Key(1); k <= 60; k++ {
		v := math.Floor(1 + rng.Pareto(1, 1.3))
		in[k] = v
		total += v
		keys = append(keys, k)
	}
	const trials = 30000
	sum := 0.0
	for i := 0; i < trials; i++ {
		r := randx.New(uint64(i)*2 + 1)
		vo := NewVarOpt(10, r)
		for _, k := range keys {
			vo.Add(k, in[k])
		}
		sum += vo.Sample().SubsetSum(nil)
	}
	mean := sum / trials
	if math.Abs(mean-total)/total > 0.02 {
		t.Errorf("VarOpt mean %v, want %v", mean, total)
	}
}

// TestVarOptExactTotal: the adjusted weights always sum to the exact
// stream total when every weight is below the final threshold region —
// more precisely, VarOpt preserves Σ adjusted = Σ original exactly at
// every step (it is a martingale with zero-variance total).
func TestVarOptTotalPreserved(t *testing.T) {
	rng := randx.New(101)
	vo := NewVarOpt(4, rng)
	total := 0.0
	vals := []float64{5, 1, 3, 8, 2, 2, 9, 1, 4, 6, 7, 3}
	for i, v := range vals {
		vo.Add(dataset.Key(i+1), v)
		total += v
		s := vo.Sample()
		if got := s.SubsetSum(nil); math.Abs(got-total) > 1e-9 {
			t.Fatalf("after %d adds: adjusted total %v, stream total %v", i+1, got, total)
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
	s1 := BottomK(in, 10, PPS{}, shared)
	s2 := BottomK(in, 10, PPS{}, shared)
	for h := range s1.Values {
		if _, ok := s2.Values[h]; !ok {
			t.Fatal("identical instances under shared seeds produced different samples")
		}
	}
	// Independent seeds: overlap should be far below 10.
	indep := xhash.Seeder{Salt: 9}
	t1 := BottomK(in, 10, PPS{}, seedFuncFrom(indep, 0))
	t2 := BottomK(in, 10, PPS{}, seedFuncFrom(indep, 1))
	overlap := 0
	for h := range t1.Values {
		if _, ok := t2.Values[h]; ok {
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
