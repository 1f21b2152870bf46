package core

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/sampling"
)

// This file attaches accuracy bounds to the single- and multi-summary
// estimates the query surface serves. Every bound is a standard error
// (the square root of a variance estimate or a proven variance bound);
// callers render the conventional 95% normal interval with CI95Z. Two
// families of bounds appear:
//
//   - plug-in HT variance estimates, unbiased under the sampling design:
//     Σ f²(h)·(1/p−1)/p over the *sampled* keys (dividing the per-key
//     variance term by p makes the sampled sum unbiased for the
//     population sum of f²(1/p−1), equation (1) of the paper);
//
//   - the bottom-k coefficient-of-variation bound CV ≤ 1/√(k−2)
//     (Cohen–Kaplan style) for rank-conditioning estimators, which holds
//     for any data vector and so needs nothing from the sample beyond k.
//
// Where the estimate is exact — a bottom-k summary that never met its
// threshold (τ = +Inf), a VarOpt full sum (adjusted weights preserve the
// stream total by construction) — the standard error is exactly 0.
//
// All key-order iteration is ascending, mirroring SubsetSum: equal
// summaries report bit-identical error bars on every run.

// CI95Z is the two-sided 95% normal quantile used to widen a standard
// error into a confidence interval.
const CI95Z = 1.96

// SumStdErr bounds the standard error of the single-instance sum
// estimate est answered by sum (the q=sum query). The second result
// reports whether a bound is known for this summary:
//
//   - set summaries: binomial HT cardinality, stderr = √(n(1−p))/p;
//   - PPS summaries: the unbiased per-key HT variance estimate (unknown
//     for a non-positive threshold, where inclusion probabilities are
//     undefined);
//   - bottom-k summaries: est/√(k−2) from the CV bound (unknown for
//     k ≤ 2 with a finite threshold);
//   - VarOpt summaries: 0 — the full-population adjusted-weight sum is
//     exact.
func SumStdErr(sum Summary, est float64) (float64, bool) {
	switch s := sum.(type) {
	case SetReader:
		p := s.SetP()
		if !(p > 0) || p > 1 {
			return 0, false
		}
		if p == 1 {
			return 0, true
		}
		n := float64(s.Size())
		return math.Sqrt(n*(1-p)) / p, true
	case PPSReader:
		_, stderr, ok := PPSSumStdErr(s)
		return stderr, ok
	case BottomKReader:
		return bottomKCVStdErr(est, s.Size(), s.RankTau())
	case varOptReader:
		return 0, true
	}
	return 0, false
}

// PPSSumStdErr answers q=sum over a PPS summary from one walk of its
// entries: the all-keys SubsetSum estimate and SumStdErr's bound on it,
// each with the bits those functions return. The bound is the square root
// of the unbiased HT variance estimate Σ_{h∈S} v²(h)·(1/p−1)/p with
// p = min(1, v/τ); ok is false — none is known — when τ is not positive.
func PPSSumStdErr(s PPSReader) (sum, stderr float64, ok bool) {
	sum, variance := ppsSumVarianceTerms(s.stored(), s.PPSTau(), nil)
	if !(s.PPSTau() > 0) {
		return sum, 0, false
	}
	return sum, math.Sqrt(variance), true
}

// ppsSumVarianceTerms is the one walk behind a PPS summary's sum and its
// error bar, over the selected keys: it accumulates, independently and in
// the stored entries' ascending key order, the HT estimate Σ v/p (p as the
// PPS rank family computes it, at rank threshold 1/τ) and the variance terms
// of PPSSumStdErr, where keys at probability 1 contribute none. The variance
// means nothing when τ is not positive.
//
//summarylint:hot
func ppsSumVarianceTerms(d *summaryData, tau float64, sel func(dataset.Key) bool) (sum, variance float64) {
	rankTau := 1 / tau
	for i := 0; i < d.n; i++ {
		if sel != nil && !sel(dataset.Key(d.weightedKeyAt(i))) {
			continue
		}
		v := d.weightedValueAt(i)
		if p := (sampling.PPS{}).InclusionProb(v, rankTau); p > 0 {
			sum += v / p
		}
		if v <= 0 {
			continue
		}
		if p := v / tau; p < 1 { // else min(1, v/τ) is 1
			variance += v * v * (1/p - 1) / p
		}
	}
	return sum, variance
}

// bottomKCVStdErr renders the bottom-k CV bound: stderr ≤ est/√(k−2).
// A +Inf threshold means the summary holds every positive key and the
// estimate is exact; k ≤ 2 with a finite threshold has no bound.
func bottomKCVStdErr(est float64, k int, tau float64) (float64, bool) {
	if math.IsInf(tau, 1) {
		return 0, true
	}
	if k <= 2 {
		return 0, false
	}
	return math.Abs(est) / math.Sqrt(float64(k-2)), true
}

// BottomKDistinct estimates the number of positive keys of one instance
// from its bottom-k summary: the rank-conditioning HT estimator
// Σ_{h∈S} 1/p(v(h); τ), where p is the rank family's inclusion
// probability under the summary's threshold. When the threshold is +Inf
// the summary holds every positive key and the count is exact. Terms
// accumulate in ascending key order (bit-identical answers across
// representations, like SubsetSum).
func BottomKDistinct(b BottomKReader) float64 {
	tau := b.RankTau()
	if math.IsInf(tau, 1) {
		return float64(b.Size())
	}
	return inverseProbCount(b.stored(), b.RankFam(), tau)
}

// inverseProbCount sums 1/p(v; τ) over a bottom-k summary's stored values,
// in ascending key order.
//
//summarylint:hot
func inverseProbCount(d *summaryData, fam sampling.RankFamily, tau float64) float64 {
	total := 0.0
	for i := 0; i < d.n; i++ {
		if p := fam.InclusionProb(d.weightedValueAt(i), tau); p > 0 {
			total += 1 / p
		}
	}
	return total
}

// BottomKDistinctStdErr bounds the standard error of a BottomKDistinct
// estimate via the same k-dependent CV bound as the subset sum: the
// distinct count is the rank-conditioning estimator of the all-ones
// function, so CV ≤ 1/√(k−2) applies verbatim.
func BottomKDistinctStdErr(b BottomKReader, est float64) (float64, bool) {
	return bottomKCVStdErr(est, b.Size(), b.RankTau())
}

// DistinctHTStdErr bounds the standard error of the r-instance HT
// distinct-count estimate over set summaries: a union key contributes
// 1/P (P = Πp_i) with probability P, so the plug-in variance estimate is
// HT·(1/P−1). It is a per-key independence bound, not an unbiased
// estimate (keys shared across instances correlate), matching the HT
// column it annotates.
func DistinctHTStdErr(sums []SetReader, ht float64) (float64, bool) {
	if len(sums) == 0 || ht < 0 {
		return 0, false
	}
	prod := 1.0
	for _, s := range sums {
		p := s.SetP()
		if !(p > 0) || p > 1 {
			return 0, false
		}
		prod *= p
	}
	if prod == 1 {
		return 0, true
	}
	return math.Sqrt(ht * (1/prod - 1)), true
}
