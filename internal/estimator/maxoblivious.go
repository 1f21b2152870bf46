package estimator

import "fmt"

// MaxL2 is the Pareto-optimal order-based estimator max^(L) for the maximum
// of two entries under weight-oblivious Poisson sampling with general
// inclusion probabilities p1, p2 (§4.1). It prioritizes "dense" data where
// the two values are close: its variance is smallest when v1 = v2.
//
// Outcome table (q = p1 + p2 − p1·p2):
//
//	S = ∅:      0
//	S = {1}:    v1/q
//	S = {2}:    v2/q
//	S = {1,2}:  max(v1,v2)/(p1·p2) − ((1/p2−1)·v1 + (1/p1−1)·v2)/q
//
// It is unbiased, nonnegative, monotone, and dominates max^(HT).
func MaxL2(o ObliviousOutcome) float64 {
	requireR(o, 2)
	p1, p2 := o.P[0], o.P[1]
	q := p1 + p2 - p1*p2
	switch {
	case !o.Sampled[0] && !o.Sampled[1]:
		return 0
	case o.Sampled[0] && !o.Sampled[1]:
		return o.Values[0] / q
	case !o.Sampled[0] && o.Sampled[1]:
		return o.Values[1] / q
	}
	v1, v2 := o.Values[0], o.Values[1]
	mx := v1
	if v2 > mx {
		mx = v2
	}
	return mx/(p1*p2) - ((1/p2-1)*v1+(1/p1-1)*v2)/q
}

// MaxU2 is the symmetric Pareto-optimal ordered-partition estimator max^(U)
// for r = 2 (§4.2). It prioritizes "sparse" data vectors (fewer positive
// entries): on data with one zero entry its variance is lower than
// max^(L)'s, at the cost of higher variance when the entries are equal.
//
// Outcome table (c = max{0, 1 − p1 − p2}):
//
//	S = ∅:      0
//	S = {1}:    v1/(p1·(1+c))
//	S = {2}:    v2/(p2·(1+c))
//	S = {1,2}:  (max(v1,v2) − (v1·(1−p2) + v2·(1−p1))/(1+c)) / (p1·p2)
func MaxU2(o ObliviousOutcome) float64 {
	requireR(o, 2)
	p1, p2 := o.P[0], o.P[1]
	c := 1 - p1 - p2
	if c < 0 {
		c = 0
	}
	switch {
	case !o.Sampled[0] && !o.Sampled[1]:
		return 0
	case o.Sampled[0] && !o.Sampled[1]:
		return o.Values[0] / (p1 * (1 + c))
	case !o.Sampled[0] && o.Sampled[1]:
		return o.Values[1] / (p2 * (1 + c))
	}
	v1, v2 := o.Values[0], o.Values[1]
	mx := v1
	if v2 > mx {
		mx = v2
	}
	return (mx - (v1*(1-p2)+v2*(1-p1))/(1+c)) / (p1 * p2)
}

// MaxUAsym2 is the asymmetric ≺-optimal variant max^(Uas) of §4.2, obtained
// by processing vectors of the form (v1, 0) before (0, v2) while enforcing
// the nonnegativity constraints. It is Pareto optimal but not symmetric:
// permuting the entries (and probabilities) changes the estimate.
//
// Outcome table (m = max{1−p1, p2}):
//
//	S = ∅:      0
//	S = {1}:    v1/p1
//	S = {2}:    v2/m
//	S = {1,2}:  (max(v1,v2) − p2·(1−p1)/m·v2 − (1−p2)·v1) / (p1·p2)
func MaxUAsym2(o ObliviousOutcome) float64 {
	requireR(o, 2)
	p1, p2 := o.P[0], o.P[1]
	m := 1 - p1
	if p2 > m {
		m = p2
	}
	switch {
	case !o.Sampled[0] && !o.Sampled[1]:
		return 0
	case o.Sampled[0] && !o.Sampled[1]:
		return o.Values[0] / p1
	case !o.Sampled[0] && o.Sampled[1]:
		return o.Values[1] / m
	}
	v1, v2 := o.Values[0], o.Values[1]
	mx := v1
	if v2 > mx {
		mx = v2
	}
	return (mx - p2*(1-p1)/m*v2 - (1-p2)*v1) / (p1 * p2)
}

func requireR(o ObliviousOutcome, r int) {
	if o.r() != r {
		panic(fmt.Sprintf("estimator: outcome has r=%d entries, estimator requires r=%d", o.r(), r))
	}
}
