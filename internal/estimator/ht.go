package estimator

import "math"

// HTOblivious is the inverse-probability (Horvitz–Thompson) estimator for an
// arbitrary multi-entry function f under weight-oblivious Poisson sampling
// (§2.2, §4): positive only when every entry is sampled, in which case the
// estimate is f(v)/PR[S=[r]]. It is unbiased and nonnegative for f ≥ 0, and
// it is the optimal inverse-probability estimator for quantiles and range.
func HTOblivious(o ObliviousOutcome, f func([]float64) float64) float64 {
	p := 1.0
	for i, s := range o.Sampled {
		if !s {
			return 0
		}
		p *= o.P[i]
	}
	return f(o.Values) / p
}

// MaxHTOblivious is HTOblivious specialized to max (§4). Pareto-dominated by
// both MaxL and MaxU.
func MaxHTOblivious(o ObliviousOutcome) float64 {
	return HTOblivious(o, maxOf)
}

// orHTOblivious is HTOblivious specialized to Boolean OR: 1/Πp when all
// entries are sampled and at least one is positive, 0 otherwise (§4.3).
func orHTOblivious(o ObliviousOutcome) float64 {
	return HTOblivious(o, orOf)
}

// ORHTKnownSeeds is the optimal inverse-probability OR estimator for
// weighted sampling of binary data with known seeds (§5.1): positive exactly
// when u_i ≤ p_i for every entry (the outcome then reveals the full vector).
func ORHTKnownSeeds(o BinaryKnownSeedsOutcome) float64 {
	return orHTOblivious(o.ToOblivious())
}

// MaxHTPPS is the optimal inverse-probability estimator of max under
// independent PPS sampling with known seeds (§5.2, from [17, 18]): the
// estimate is positive exactly on outcomes where the revealed upper bounds
// of unsampled entries do not exceed the maximum sampled value, so the max
// is determined.
func MaxHTPPS(o PPSOutcome) float64 {
	m := o.maxSampled()
	if m <= 0 {
		return 0
	}
	p := 1.0
	for i, s := range o.Sampled {
		if !s && o.U[i]*o.Tau[i] > m {
			return 0
		}
	}
	for i := range o.Tau {
		p *= math.Min(1, m/o.Tau[i])
	}
	if p <= 0 {
		return 0
	}
	return m / p
}

func maxOf(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	if len(v) == 0 {
		return 0
	}
	return m
}

func orOf(v []float64) float64 {
	for _, x := range v {
		if x > 0 {
			return 1
		}
	}
	return 0
}
