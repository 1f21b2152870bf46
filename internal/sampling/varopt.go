package sampling

import (
	"math"
	"sort"

	"repro/internal/dataset"
)

// VarOpt is a streaming VarOpt_k reservoir (Chao 1982; Cohen, Duffield,
// Kaplan, Lund, Thorup 2009): a fixed-size weighted sample with PPS
// inclusion probabilities, variance-optimal subset-sum estimates, and
// non-positively correlated inclusions.
//
// Invariant: the reservoir holds at most k items; each retained item has an
// adjusted weight max(w, tau) where tau is the current threshold, and the
// adjusted weights are unbiased estimators of the original weights.
type VarOpt struct {
	k     int
	tau   float64
	items []voItem
	// adj and idx are scratch buffers reused across Add overflows so the
	// per-arrival threshold solve does not allocate.
	adj []float64
	idx []int
	rng interface{ Float64() float64 }
}

type voItem struct {
	key dataset.Key
	w   float64 // original weight
}

// NewVarOpt returns a VarOpt_k reservoir of capacity k drawing its drop
// decisions from rng (any source of uniform [0,1) floats).
func NewVarOpt(k int, rng interface{ Float64() float64 }) *VarOpt {
	if k <= 0 {
		panic("sampling: NewVarOpt with non-positive k")
	}
	return &VarOpt{k: k, rng: rng}
}

// Tau returns the current threshold; items with weight below Tau are
// represented with adjusted weight Tau.
//
//summarylint:ignore shared by the tests of internal/sampling and bench_test.go (BenchmarkVarOptStream)
func (v *VarOpt) Tau() float64 { return v.tau }

// Add streams one (key, weight) pair into the reservoir. Weights must be
// positive; zero or negative weights are ignored.
func (v *VarOpt) Add(key dataset.Key, w float64) {
	if w <= 0 {
		return
	}
	v.items = append(v.items, voItem{key, w})
	if len(v.items) <= v.k {
		return
	}
	// k+1 items: compute the new threshold tau' solving
	// Σ min(1, w̃_i/tau') = k over adjusted weights, then drop exactly one
	// item with probability 1 − min(1, w̃_i/tau'). Previously retained
	// items carry their threshold-adjusted weight max(w, tau); the new
	// arrival enters with its raw weight.
	if cap(v.adj) < len(v.items) {
		v.adj = make([]float64, len(v.items))
		v.idx = make([]int, len(v.items))
	}
	adj := v.adj[:len(v.items)]
	for i, it := range v.items {
		adj[i] = math.Max(it.w, v.tau)
	}
	adj[len(adj)-1] = v.items[len(adj)-1].w
	idx := v.idx[:len(v.items)]
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return adj[idx[a]] < adj[idx[b]] })
	// Find tau' by scanning the sorted adjusted weights: with the t
	// smallest items below the threshold, tau' = (Σ_{i≤t} w̃_i)/(k−(n−t))
	// where n = k+1; valid when w̃_t ≤ tau' ≤ w̃_{t+1}.
	n := len(v.items)
	prefix := 0.0
	tauNew := 0.0
	for t := 1; t <= n; t++ {
		prefix += adj[idx[t-1]]
		denom := float64(v.k - (n - t))
		if denom <= 0 {
			continue
		}
		cand := prefix / denom
		hi := math.Inf(1)
		if t < n {
			hi = adj[idx[t]]
		}
		if cand >= adj[idx[t-1]]-1e-12 && cand <= hi+1e-12 {
			tauNew = cand
			break
		}
	}
	if tauNew < v.tau {
		tauNew = v.tau
	}
	// Drop probabilities 1 − min(1, w̃_i/tauNew) sum to exactly 1.
	u := v.rng.Float64()
	drop := -1
	cum := 0.0
	for i := range v.items {
		d := 1 - math.Min(1, adj[i]/tauNew)
		cum += d
		if u < cum {
			drop = i
			break
		}
	}
	if drop < 0 {
		// Numerical slack: drop the smallest adjusted weight.
		drop = idx[0]
	}
	v.items[drop] = v.items[n-1]
	v.items = v.items[:n-1]
	v.tau = tauNew
}

// AddBatch streams a slice of (key, weight) pairs into the reservoir, in
// order: Add for each, with one call for the batch.
//
//summarylint:hot
func (v *VarOpt) AddBatch(ps []Pair) {
	for _, p := range ps {
		v.Add(p.Key, p.Value)
	}
}

// Sample finalizes the reservoir into a VarOptSample.
func (v *VarOpt) Sample() *VarOptSample {
	out := &VarOptSample{
		Adjusted: make(map[dataset.Key]float64, len(v.items)),
		Original: make(map[dataset.Key]float64, len(v.items)),
		Tau:      v.tau,
	}
	for _, it := range v.items {
		out.Original[it.key] = it.w
		out.Adjusted[it.key] = math.Max(it.w, v.tau)
	}
	return out
}

// VarOptSample is a finalized VarOpt_k sample.
type VarOptSample struct {
	// Adjusted maps sampled keys to their unbiased adjusted weights
	// max(w, Tau).
	Adjusted map[dataset.Key]float64
	// Original maps sampled keys to their exact weights.
	Original map[dataset.Key]float64
	// Tau is the final threshold; the inclusion probability of a key with
	// weight w is min(1, w/Tau).
	Tau float64
}

// SubsetSum estimates Σ_{h∈sel} v(h) by summing adjusted weights. Terms
// accumulate in ascending key order, not map order, so equal samples
// produce bit-identical estimates on every run — the same reproducibility
// contract as WeightedSample.SubsetSum.
func (s *VarOptSample) SubsetSum(sel func(dataset.Key) bool) float64 {
	keys := make([]dataset.Key, 0, len(s.Adjusted))
	for h := range s.Adjusted {
		keys = append(keys, h)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	total := 0.0
	for _, h := range keys {
		if sel != nil && !sel(h) {
			continue
		}
		total += s.Adjusted[h]
	}
	return total
}
