// Package sampling implements the single-instance sampling schemes of §7.1
// (Poisson weight-oblivious, Poisson PPS, bottom-k / order sampling)
// and the joint multi-instance distributions (independent vs shared-seed
// coordinated sampling) used throughout the paper.
//
// All schemes are driven by reproducible seeds u(h) ∈ [0,1) supplied by the
// caller (normally hash-derived via xhash.Seeder), which realizes the
// paper's "known seeds" model: the estimator can recompute the seed of any
// key, sampled or not.
package sampling

import "math"

// RankFamily maps a uniform seed and a weight to a rank value. Smaller
// ranks are sampled first; weighted sampling uses families where the rank
// is stochastically decreasing in the weight (§7.1).
type RankFamily interface {
	// Rank returns r(h) = F_w^{-1}(u) for seed u ∈ [0,1) and weight w ≥ 0.
	// A weight of 0 yields +Inf: zero-valued keys are never sampled.
	Rank(u, w float64) float64
	// InclusionProb returns PR[Rank(U, w) < tau] over uniform U — the
	// probability a key of weight w has rank below the threshold tau.
	InclusionProb(w, tau float64) float64
	// Name identifies the family ("pps" or "exp").
	Name() string
}

// PPS ranks: r = u/w, the family behind Poisson PPS (inclusion probability
// proportional to size) and priority sampling (bottom-k with PPS ranks).
type PPS struct{}

// Rank implements RankFamily.
func (PPS) Rank(u, w float64) float64 {
	if w <= 0 {
		return math.Inf(1)
	}
	return u / w
}

// InclusionProb implements RankFamily: PR[u/w < tau] = min(1, w·tau).
func (PPS) InclusionProb(w, tau float64) float64 {
	if w <= 0 || tau <= 0 {
		return 0
	}
	if math.IsInf(tau, 1) {
		return 1
	}
	return math.Min(1, w*tau)
}

// Name implements RankFamily.
func (PPS) Name() string { return "pps" }

// EXP ranks: r = −ln(1−u)/w, exponentially distributed with parameter w.
// Bottom-k with EXP ranks is weighted sampling without replacement.
type EXP struct{}

// Rank implements RankFamily.
func (EXP) Rank(u, w float64) float64 {
	if w <= 0 {
		return math.Inf(1)
	}
	return -math.Log1p(-u) / w
}

// InclusionProb implements RankFamily: PR[r < tau] = 1 − e^{−w·tau}.
func (EXP) InclusionProb(w, tau float64) float64 {
	if w <= 0 || tau <= 0 {
		return 0
	}
	if math.IsInf(tau, 1) {
		return 1
	}
	return -math.Expm1(-w * tau)
}

// Name implements RankFamily.
func (EXP) Name() string { return "exp" }

// rejectGuard is the relative guard band of the threshold fast-reject: a
// full sampler certainly rejects an arrival when u ≥ (1+rejectGuard)·tau·w,
// using one multiply and one compare — no division, and for EXP ranks no
// logarithm. The band is ~10^7 ulps wide, far beyond the worst-case
// rounding of the exact rank computation, so the shortcut can never
// disagree with it; arrivals inside the band fall through to the exact
// Rank comparison, keeping every accept/reject decision bit-identical to
// the slow path.
//
// Why one comparison covers both built-in families: PPS ranks are u/w, so
// u ≥ tau·w is the rejection test itself (modulo rounding, hence the
// guard). EXP ranks are −ln(1−u)/w ≥ u/w (since −ln(1−u) ≥ u on [0,1)),
// so u ≥ tau·w implies rank ≥ tau — the uniform draw rejects before the
// logarithm is ever taken. Non-positive weights have rank +Inf and are
// always rejected by a full sampler; tau·w ≤ 0 ≤ u covers them too.
//
// The test has a second user: the raw-ingest scanner (internal/server)
// runs it, through the samplers' TauGuard, with an upper bound on w read
// off the value token's digits, and so rejects a pair before its value is
// parsed. guard·hi ≥ guard·w for every hi ≥ w, so what it rejects the
// sampler would have rejected.
const rejectGuard = 1e-9

// fastRejectMult returns the guard multiplier m such that u ≥ m·tau·w
// certainly implies Rank(u, w) ≥ tau for the given family, or NaN for
// unknown families (NaN·w comparisons are always false, so the fast path
// self-disables and every arrival takes the exact rank comparison).
func fastRejectMult(fam RankFamily) float64 {
	switch fam.(type) {
	case PPS, EXP:
		return 1 + rejectGuard
	}
	return math.NaN()
}
