package estimator

// Variance-estimate kernels. Per-key estimates are independent across
// keys, so VAR[Σ f̂(k)] = Σ VAR[f̂(k)], and each key's variance has the
// unbiased estimate f̂² − ĝ from the same outcome, ĝ being any unbiased
// estimate of f(v)². Each kernel returns that term for one key; a caller
// sums the terms and clamps only the sum at 0.
//
//   - max^(L): ĝ is the same estimator applied to the squared values. For
//     v ≥ 0, max(v)² = max(v²), and squaring keeps the L order.
//   - OR^(L) and the §8.1 distinct count: binary data have f² = f, so
//     ĝ = f̂ and the term is f̂(f̂ − 1).
//   - max^(HT) and max^(L) under r = 2 PPS with known seeds: ĝ is the HT
//     estimate of max², which is m·ht for the largest sampled value m.

// maxL2VarTerm returns l² − ĝ for max^(L) (MaxL2) on one outcome, with the
// arguments of maxL2: l is the estimate and ĝ is MaxL2 of the squared
// values.
//
//summarylint:hot
func maxL2VarTerm(s1, s2 bool, v1, v2, p1, p2 float64) float64 {
	l := maxL2(s1, s2, v1, v2, p1, p2)
	return l*l - maxL2(s1, s2, v1*v1, v2*v2, p1, p2)
}

// varTermInto returns t² − ĝ for max^(L) (Estimate) on outcome o, whose
// sampled values must be nonnegative: t is the estimate and ĝ is max^(L)
// of the squared values. z is scratch as for estimateInto, and sq (at
// least r long) receives the squares.
//
//summarylint:hot
func (e *MaxLUniform) varTermInto(o ObliviousOutcome, z, sq []float64) float64 {
	t := e.estimateInto(o, z)
	sq = sq[:len(o.Values)]
	for i, v := range o.Values {
		sq[i] = v * v
	}
	o.Values = sq
	return t*t - e.estimateInto(o, z)
}

// binaryVarTableInto fills vt (as long as table) with OR^(L)'s term
// t(t − 1) for each entry t of a BinaryTableInto table, at the same
// index.
//
//summarylint:hot
func binaryVarTableInto(vt, table []float64) {
	for i, t := range table {
		vt[i] = t * (t - 1)
	}
}

// varLEstimate returns the unbiased estimate of VAR[D̂^(L)] (§8.1) from
// the category counts: Σ t(t − 1) over the sampled keys, t being each
// key's OR^(L) estimate (L).
//
//summarylint:hot
func (e DistinctEstimator) varLEstimate(c DistinctCounts) float64 {
	q := e.P1 + e.P2 - e.P1*e.P2
	t := 1 / q
	t10 := 1 / (e.P1 * q)
	t01 := 1 / (e.P2 * q)
	return float64(c.F1Q+c.FQ1+c.F11)*t*(t-1) +
		float64(c.F10)*t10*(t10-1) +
		float64(c.F01)*t01*(t01-1)
}

// maxPPS2VarTerms returns the terms of MaxPPS2's two estimates on one
// outcome, given m, the largest sampled value (0 when none is): ht(ht − m)
// for max^(HT) and l² − m·ht for max^(L). Where the outcome determines
// the max, ht = m/p and the HT estimate of max² is m²/p = m·ht; elsewhere
// both are 0.
//
//summarylint:hot
func maxPPS2VarTerms(m, ht, l float64) (htTerm, lTerm float64) {
	return ht * (ht - m), l*l - m*ht
}
