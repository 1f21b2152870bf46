package estimator

import (
	"fmt"
	"math"
	"sort"
)

// HT estimators for the remaining §2 primitives: the ℓ-th largest entry
// and the exponentiated range RG^d. Under weight-oblivious Poisson
// sampling these inverse-probability estimators are unbiased and
// nonnegative; HT is Pareto optimal for min (any r) and for RG at r = 2,
// and suboptimal for the interior quantiles (§4) — which is precisely the
// paper's motivation for the order-based machinery.

// LthHTPPS estimates the ℓ-th largest entry (1-based) under independent
// Poisson PPS sampling with known seeds — the §5.2 analogue of
// LthHTOblivious, generalizing MaxHTPPS (the ℓ = 1 case) to interior
// quantiles.
//
// The estimate is positive exactly on outcomes that determine the ℓ-th
// largest value x: the ℓ-th largest sampled value exists and the revealed
// upper bound of every unsampled entry is at most x. On that event every
// entry with value ≥ x is sampled (an unsampled entry's bound strictly
// exceeds its value), so x is known exactly, and the event's probability
// factorizes as Π_{v_i ≥ x} min(1, v_i/τ_i) · Π_{v_i < x} min(1, x/τ_i) —
// computable from the outcome alone, because entries below x contribute a
// factor depending only on x. Inverse-probability weighting over this
// event is therefore well-defined and unbiased.
func LthHTPPS(o PPSOutcome, l int) float64 {
	if l < 1 || l > o.r() {
		panic(fmt.Sprintf("estimator: quantile index %d out of range [1,%d]", l, o.r()))
	}
	z := make([]float64, 0, o.r())
	for i, s := range o.Sampled {
		if s {
			z = append(z, o.Values[i])
		}
	}
	if len(z) < l {
		return 0
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(z)))
	x := z[l-1]
	if x <= 0 {
		return 0
	}
	p := 1.0
	for i, s := range o.Sampled {
		switch {
		case s && o.Values[i] >= x:
			p *= math.Min(1, o.Values[i]/o.Tau[i])
		case s:
			p *= math.Min(1, x/o.Tau[i])
		default:
			if o.U[i]*o.Tau[i] > x {
				return 0
			}
			p *= math.Min(1, x/o.Tau[i])
		}
	}
	if p <= 0 {
		return 0
	}
	return x / p
}
