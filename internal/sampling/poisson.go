package sampling

import (
	"cmp"
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
	// Entries holds the sampled keys and their exact values, in strictly
	// ascending key order — the order of a summary's v2 entries.
	Entries []Pair
	// Tau is the rank threshold: fixed for Poisson sampling; the (k+1)-st
	// smallest rank for bottom-k (rank conditioning). +Inf means every
	// positive key was included.
	Tau float64
	// Family is the rank family used to draw ranks.
	Family RankFamily
}

// SubsetSum estimates Σ_{h∈sel} v(h) with inverse-probability weights
// (HT for Poisson, rank-conditioning for bottom-k). A nil sel selects all.
// Terms are accumulated in ascending key order, the order of Entries, so
// equal samples produce bit-identical estimates on every run — the
// reproducibility contract dispersed post-hoc queries rely on.
func (s *WeightedSample) SubsetSum(sel func(dataset.Key) bool) float64 {
	total := 0.0
	for _, e := range s.Entries {
		if sel != nil && !sel(e.Key) {
			continue
		}
		if p := s.Family.InclusionProb(e.Value, s.Tau); p > 0 {
			total += e.Value / p
		}
	}
	return total
}

// ascending sorts a sample's pairs by key, in place, and keeps one pair
// per key: a key pushed twice, against the samplers' contract, still
// leaves one entry.
func ascending(ps []Pair) []Pair {
	slices.SortFunc(ps, func(a, b Pair) int { return cmp.Compare(a.Key, b.Key) })
	return slices.CompactFunc(ps, func(a, b Pair) bool { return a.Key == b.Key })
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
