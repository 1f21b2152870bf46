package sampling

import (
	"math"
	"slices"
	"sort"

	"repro/internal/dataset"
)

// SeedFunc supplies the uniform seed u(h) ∈ [0,1) for a key. Seeds are
// normally hash-derived (xhash.Seeder) so they are reproducible — the
// "known seeds" model.
type SeedFunc func(dataset.Key) float64

// WeightedSample is the outcome of weighted sampling of a single instance:
// the sampled keys with their values, plus the rank threshold that governed
// (Poisson) or conditions (bottom-k) inclusion.
type WeightedSample struct {
	// Values holds the sampled keys and their exact values.
	Values map[dataset.Key]float64
	// Tau is the rank threshold: fixed for Poisson sampling; the (k+1)-st
	// smallest rank for bottom-k (rank conditioning). +Inf means every
	// positive key was included.
	Tau float64
	// Family is the rank family used to draw ranks.
	Family RankFamily
}

// Len returns the number of sampled keys.
//
//summarylint:ignore shared by the tests of internal/sampling, internal/engine and bench_test.go
func (s *WeightedSample) Len() int { return len(s.Values) }

// InclusionProb returns the (conditional) inclusion probability of a key
// with weight w given the sample's threshold. For Poisson samples this is
// the exact inclusion probability; for bottom-k it is the rank-conditioning
// probability of §7.1.
//
//summarylint:ignore the reference loops of internal/core (query_ref_test.go) share it
func (s *WeightedSample) InclusionProb(w float64) float64 {
	return s.Family.InclusionProb(w, s.Tau)
}

// SubsetSum estimates Σ_{h∈sel} v(h) with inverse-probability weights
// (HT for Poisson, rank-conditioning for bottom-k). A nil sel selects all.
// Terms are accumulated in ascending key order, not map order, so equal
// samples produce bit-identical estimates on every run — the
// reproducibility contract dispersed post-hoc queries rely on.
func (s *WeightedSample) SubsetSum(sel func(dataset.Key) bool) float64 {
	keys := make([]dataset.Key, 0, len(s.Values))
	for h := range s.Values {
		keys = append(keys, h)
	}
	slices.Sort(keys)
	total := 0.0
	for _, h := range keys {
		if sel != nil && !sel(h) {
			continue
		}
		v := s.Values[h]
		p := s.InclusionProb(v)
		if p > 0 {
			total += v / p
		}
	}
	return total
}

// poissonRank draws a Poisson sample of the instance: key h is included iff
// its rank Family.Rank(u(h), v(h)) is below rankTau. Inclusions of
// different keys are independent given independent seeds.
func poissonRank(in dataset.Instance, fam RankFamily, rankTau float64, seed SeedFunc) *WeightedSample {
	out := &WeightedSample{Values: make(map[dataset.Key]float64), Tau: rankTau, Family: fam}
	for h, v := range in {
		if fam.Rank(seed(h), v) < rankTau {
			out.Values[h] = v
		}
	}
	return out
}

// PoissonPPS draws a Poisson PPS sample with weight-scale threshold tauStar:
// key h is included iff v(h) ≥ u(h)·tauStar, i.e. with probability
// min{1, v(h)/tauStar} (§2, §5.2). In rank terms this is PPS ranks with
// rank threshold 1/tauStar.
func PoissonPPS(in dataset.Instance, tauStar float64, seed SeedFunc) *WeightedSample {
	return poissonRank(in, PPS{}, 1/tauStar, seed)
}

// TauForExpectedSize returns the weight-scale threshold tauStar for which a
// Poisson PPS sample of the instance has expected size k:
// Σ_h min{1, v(h)/tauStar} = k. It solves by bisection on the sorted value
// profile and is exact up to floating point. If k ≥ the number of positive
// keys, it returns a threshold small enough to include everything.
func TauForExpectedSize(in dataset.Instance, k float64) float64 {
	vals := make([]float64, 0, len(in))
	for _, v := range in {
		if v > 0 {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 1
	}
	sort.Float64s(vals)
	if k >= float64(len(vals)) {
		return vals[0] / 2
	}
	if k <= 0 {
		return math.Inf(1)
	}
	// expectedSize(tau) = Σ min(1, v/tau) is continuous and decreasing in
	// tau. Use prefix sums over the sorted values to evaluate in O(log n).
	prefix := make([]float64, len(vals)+1)
	for i, v := range vals {
		prefix[i+1] = prefix[i] + v
	}
	size := func(tau float64) float64 {
		// number of values ≥ tau contribute 1 each; smaller contribute v/tau.
		i := sort.SearchFloat64s(vals, tau)
		return prefix[i]/tau + float64(len(vals)-i)
	}
	lo, hi := vals[0]/2, vals[len(vals)-1]*float64(len(vals))
	for size(hi) > k {
		hi *= 2
	}
	for i := 0; i < 200 && hi-lo > 1e-12*hi; i++ {
		mid := (lo + hi) / 2
		if size(mid) > k {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
