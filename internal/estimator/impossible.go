package estimator

// Negative results of §6: with weighted sampling and *unknown* seeds there
// is no unbiased nonnegative estimator for ℓth(v) with ℓ < r (including
// Boolean OR) or for RG^d, even on binary domains. The functions here make
// Theorem 6.1's argument executable: they solve the (unique) candidate
// unbiased estimator and report the forced violation.

// UnknownSeedsOR2 solves the unique unbiased estimator of OR(v1, v2) over
// weighted samples with unknown seeds, where p_i is the inclusion
// probability of entry i when v_i = 1 (a zero entry is never sampled, and
// without seeds its absence carries no information).
//
// The outcome space is {∅, {1}, {2}, {1,2}} (sampled entries always carry
// value 1). Unbiasedness on (0,0), (1,0), (0,1) forces
//
//	f̂(∅) = 0,  f̂({1}) = 1/p1,  f̂({2}) = 1/p2,
//
// and unbiasedness on (1,1) then forces
//
//	f̂({1,2}) = (p1 + p2 − 1)/(p1·p2),
//
// which is negative exactly when p1 + p2 < 1. Feasible reports whether a
// nonnegative unbiased estimator exists.
type UnknownSeedsOR2 struct {
	// EstEmpty, EstOne1, EstOne2, EstBoth are the forced estimate values.
	EstEmpty, EstOne1, EstOne2, EstBoth float64
	// Feasible is true iff EstBoth ≥ 0, i.e. p1 + p2 ≥ 1.
	Feasible bool
}

// SolveUnknownSeedsOR2 computes the forced estimator for given inclusion
// probabilities (both must lie in (0,1]).
func SolveUnknownSeedsOR2(p1, p2 float64) UnknownSeedsOR2 {
	both := (p1 + p2 - 1) / (p1 * p2)
	return UnknownSeedsOR2{
		EstEmpty: 0,
		EstOne1:  1 / p1,
		EstOne2:  1 / p2,
		EstBoth:  both,
		Feasible: both >= 0,
	}
}
