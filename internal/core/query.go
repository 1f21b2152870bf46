package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/estimator"
	"repro/internal/xhash"
)

// This file extends the two-summary queries of core.go to arbitrary
// stored subsets — the query surface the summary server dispatches to.
// Every function takes summaries (freshly drawn or reconstructed from a
// wire format), verifies they share a randomization, and sums per-key
// partial-information estimates.

// checkCombinable verifies r ≥ min summaries, pairwise-combinable
// randomizations, and pairwise-distinct instance indices.
func checkCombinable[S Summary](sums []S, min int) error {
	if len(sums) < min {
		return fmt.Errorf("core: query needs at least %d summaries, got %d", min, len(sums))
	}
	for i, s := range sums {
		if s.seederOf() != sums[0].seederOf() {
			return fmt.Errorf("core: summaries use different randomizations")
		}
		// Quadratic in the handful of queried instances, and no per-query
		// set to allocate.
		for _, prev := range sums[:i] {
			if prev.InstanceID() == s.InstanceID() {
				return fmt.Errorf("core: duplicate instance %d", s.InstanceID())
			}
		}
	}
	return nil
}

// checkTau refuses a PPS summary whose threshold is not positive: the
// inclusion probabilities min(1, v/τ) every PPS estimator divides by are
// undefined there.
func checkTau(s PPSReader) error {
	if !(s.PPSTau() > 0) { // NaN fails too, as in PPSSumStdErr
		return fmt.Errorf("core: summary of instance %d has non-positive tau %v", s.InstanceID(), s.PPSTau())
	}
	return nil
}

// MultiDistinctEstimate is the result of a distinct-count query over r ≥ 2
// set summaries.
type MultiDistinctEstimate struct {
	// HT and L are the estimates of |N1 ∪ … ∪ Nr| over selected keys: HT
	// generalizes §8.1 (a key contributes 1/Πp_i exactly when every
	// membership is determined and at least one holds), L is the
	// r-instance OR^(L) estimator built on the Theorem 4.2 machinery.
	HT, L float64
	// KeysUsed is the number of distinct keys appearing in ≥ 1 sample.
	KeysUsed int
}

// DistinctCountMultiReaders estimates the number of distinct selected keys
// across r ≥ 2 set summaries produced by the same Summarizer. For r = 2 it
// delegates to the §8.1 pair estimator (which supports differing sampling
// probabilities); for r > 2 the OR^(L) construction requires a uniform
// per-member probability across the summaries.
func DistinctCountMultiReaders(sums []SetReader, sel func(dataset.Key) bool) (MultiDistinctEstimate, error) {
	if err := checkCombinable(sums, 2); err != nil {
		return MultiDistinctEstimate{}, err
	}
	if len(sums) == 2 {
		est, err := DistinctCountReaders(sums[0], sums[1], sel)
		if err != nil {
			return MultiDistinctEstimate{}, err
		}
		return MultiDistinctEstimate{HT: est.HT, L: est.L, KeysUsed: est.Counts.Sampled()}, nil
	}
	r := len(sums)
	p := sums[0].SetP()
	for _, s := range sums[1:] {
		if s.SetP() != p {
			return MultiDistinctEstimate{}, fmt.Errorf(
				"core: distinct count over %d summaries needs a uniform sampling probability, got %v and %v",
				r, p, s.SetP())
		}
	}
	est, err := estimator.ORLUniform(r, p)
	if err != nil {
		return MultiDistinctEstimate{}, err
	}
	htCoeff := 1.0
	for i := 0; i < r; i++ {
		htCoeff *= p
	}
	sc := scratchPool.Get().(*queryScratch)
	defer sc.release()
	// OR^(L) of a key depends only on how many instances sampled it and how
	// many more reveal its absence, so tabulate the estimator once per query.
	size := (r + 1) * (r + 1)
	sc.floats, sc.bools = resize(sc.floats, size+2*r), resize(sc.bools, r)
	table := sc.floats[:size]
	est.BinaryTableInto(table, sc.bools, sc.floats[size:size+r], sc.floats[size+r:])
	return distinctMerge(sc.mergeOf(sums), table, bindSeeders(sc, sums), p, 1/htCoeff, sel), nil
}

// distinctMerge sums the per-key OR^(HT) and OR^(L) estimates over the
// ascending union of r set summaries' members. table is the OR^(L) estimate
// by (sampled ones, revealed zeros) — estimator.BinaryTableInto — and htTerm
// is 1/p^r, the HT contribution of a fully determined key.
//
//summarylint:hot
func distinctMerge(m *unionMerge, table []float64, seed []xhash.InstanceSeeder, p, htTerm float64, sel func(dataset.Key) bool) MultiDistinctEstimate {
	stride := len(seed) + 1
	var out MultiDistinctEstimate
	for h, ok := m.next(); ok; h, ok = m.next() {
		if sel != nil && !sel(dataset.Key(h)) {
			continue
		}
		ones, zeros := 0, 0
		allSeedsLow := true
		for i, in := range m.in {
			u := seed[i].Seed(h)
			// Summaries hold the *sampled* members, so membership in the
			// summary is exactly "member and seed below p"; a non-member's
			// seed at or below p reveals its absence (§5.1).
			if in {
				ones++
			} else if u <= p {
				zeros++
			}
			if u >= p {
				allSeedsLow = false
			}
		}
		out.KeysUsed++
		out.L += table[ones*stride+zeros]
		if allSeedsLow {
			out.HT += htTerm
		}
	}
	return out
}

// QuantileEstimate is the result of a per-key quantile query.
type QuantileEstimate struct {
	// HT is the unbiased inverse-probability estimate of the ℓ-th largest
	// value of the key across the queried instances (LthHTPPS): positive
	// exactly when the summaries determine that value.
	HT float64
	// Sampled is the number of queried instances whose summary holds the
	// key.
	Sampled int
}

// QuantilePPSReaders estimates the ℓ-th largest value (1-based: ℓ = 1 is
// the max, ℓ = r the min) of one key across r ≥ 2 PPS summaries produced by
// the same Summarizer. Interior quantiles have no closed-form order-based
// estimator in the paper (§4 proves plain HT suboptimal and the conclusion
// leaves derivation to automated tools — see examples/derive), so the HT
// baseline is what a query can serve exactly.
func QuantilePPSReaders(sums []PPSReader, h dataset.Key, l int) (QuantileEstimate, error) {
	if err := checkCombinable(sums, 2); err != nil {
		return QuantileEstimate{}, err
	}
	r := len(sums)
	if l < 1 || l > r {
		return QuantileEstimate{}, fmt.Errorf("core: quantile index %d out of range [1,%d]", l, r)
	}
	sc := scratchPool.Get().(*queryScratch)
	defer sc.release()
	sc.floats, sc.bools = resize(sc.floats, 3*r), resize(sc.bools, r)
	o := estimator.PPSOutcome{Tau: sc.floats[:r], U: sc.floats[r : 2*r], Sampled: sc.bools, Values: sc.floats[2*r:]}
	var out QuantileEstimate
	for i, seed := range bindSeeders(sc, sums) {
		s := sums[i]
		if err := checkTau(s); err != nil {
			return QuantileEstimate{}, err
		}
		o.Tau[i] = s.PPSTau()
		o.U[i] = seed.Seed(uint64(h))
		o.Values[i], o.Sampled[i] = s.Lookup(h)
		if o.Sampled[i] {
			out.Sampled++
		}
	}
	out.HT = estimator.LthHTPPS(o, l)
	return out, nil
}
