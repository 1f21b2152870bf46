package estimator

import "math"

// This file provides exact moment computation for the finite outcome spaces
// (weight-oblivious Poisson, weighted binary with known seeds) and
// deterministic numeric integration for the continuous-seed PPS setting,
// plus the paper's closed-form variances. These power every figure
// reproduction without Monte Carlo noise.

// outcomeProbs returns PR[S] for every sampled set S under independent
// inclusion with probabilities p, indexed by S's bit mask.
func outcomeProbs(p []float64) []float64 {
	pr := make([]float64, 1<<uint(len(p)))
	for mask := range pr {
		w := 1.0
		for i, pi := range p {
			if mask&(1<<uint(i)) != 0 {
				w *= pi
			} else {
				w *= 1 - pi
			}
		}
		pr[mask] = w
	}
	return pr
}

// ObliviousMoments computes the exact mean and variance of an estimator on
// data vector v under weight-oblivious Poisson sampling with probabilities
// p, by enumerating all 2^r outcomes. It is exact up to floating point and
// feasible for r ≲ 20.
func ObliviousMoments(p, v []float64, est func(ObliviousOutcome) float64) (mean, variance float64) {
	r := len(p)
	o := ObliviousOutcome{P: p, Sampled: make([]bool, r), Values: make([]float64, r)}
	var m1, m2 float64
	for mask, w := range outcomeProbs(p) {
		for i := range o.Sampled {
			o.Sampled[i] = mask&(1<<uint(i)) != 0
			o.Values[i] = 0
			if o.Sampled[i] {
				o.Values[i] = v[i]
			}
		}
		x := est(o)
		m1 += w * x
		m2 += w * x * x
	}
	return m1, m2 - m1*m1
}

// BinaryKnownSeedsMoments computes the exact mean and variance of an
// estimator of a binary vector v under weighted Poisson sampling with known
// seeds. The outcome depends on the seeds only through the indicators
// U[i] ≤ P[i], so 2^r outcomes cover the space exactly.
func BinaryKnownSeedsMoments(p, v []float64, est func(BinaryKnownSeedsOutcome) float64) (mean, variance float64) {
	r := len(p)
	o := BinaryKnownSeedsOutcome{P: p, U: make([]float64, r), Sampled: make([]bool, r)}
	var m1, m2 float64
	for mask, w := range outcomeProbs(p) {
		for i := range o.U {
			if mask&(1<<uint(i)) != 0 {
				// Seed below the threshold: entry sampled iff v_i = 1.
				o.U[i] = p[i] / 2
				o.Sampled[i] = v[i] > 0
			} else {
				o.U[i] = (1 + p[i]) / 2
				o.Sampled[i] = false
			}
		}
		x := est(o)
		m1 += w * x
		m2 += w * x * x
	}
	return m1, m2 - m1*m1
}

// PPSMoments2 computes the mean and variance of an estimator of a 2-entry
// data vector under independent PPS sampling with known seeds, by
// deterministic integration over the seed space [0,1]² with n Simpson
// intervals per 1D integral (an odd n is rounded up).
//
// The estimator must not depend on the seeds of sampled entries (true for
// every estimator in this package: a sampled entry's exact value subsumes
// its seed), and it must be 0 on the empty outcome, whose region is not
// integrated. Every unbiased estimator of an f with f(0) = 0 is: the zero
// vector yields the empty outcome under every seed, so unbiasedness on it
// forces the estimate there to be 0.
func PPSMoments2(v, tau []float64, est func(PPSOutcome) float64, n int) (mean, variance float64) {
	if len(v) != 2 || len(tau) != 2 {
		panic("estimator: PPSMoments2 requires r=2")
	}
	if n%2 == 1 {
		n++
	}
	q := [2]float64{incl(v[0], tau[0]), incl(v[1], tau[1])}
	var m1, m2 float64
	acc := func(w, x float64) {
		m1 += w * x
		m2 += w * x * x
	}
	outcome := func(s1, s2 bool, u1, u2 float64) PPSOutcome {
		o := PPSOutcome{Tau: tau, U: []float64{u1, u2}, Sampled: []bool{s1, s2}, Values: []float64{0, 0}}
		if s1 {
			o.Values[0] = v[0]
		}
		if s2 {
			o.Values[1] = v[1]
		}
		return o
	}
	// Region S = {1,2}: constant in the seeds.
	if q[0] > 0 && q[1] > 0 {
		acc(q[0]*q[1], est(outcome(true, true, q[0]/2, q[1]/2)))
	}
	// Region S = {1}: integrate over u2 ∈ (q2, 1]. The integrand has a
	// kink where the revealed bound u2·τ2 crosses the sampled value v1
	// (the determining vector's min{·} switches); split there so Simpson
	// converges at full order.
	if q[0] > 0 && q[1] < 1 {
		kink := clamp(v[0]/tau[1], q[1], 1)
		regionIntegrate(q[1], kink, n, func(u2, w float64) {
			x := est(outcome(true, false, q[0]/2, u2))
			acc(q[0]*w, x)
		})
	}
	// Region S = {2}: integrate over u1 ∈ (q1, 1], split at the symmetric
	// kink.
	if q[1] > 0 && q[0] < 1 {
		kink := clamp(v[1]/tau[0], q[0], 1)
		regionIntegrate(q[0], kink, n, func(u1, w float64) {
			x := est(outcome(false, true, u1, q[1]/2))
			acc(q[1]*w, x)
		})
	}
	return m1, m2 - m1*m1
}

// integrate1D visits the composite-Simpson nodes of [a,b] with n intervals
// (n even), calling visit(u, weight) for each node; the weights sum to b−a.
func integrate1D(a, b float64, n int, visit func(u, w float64)) {
	if b <= a {
		return
	}
	h := (b - a) / float64(n)
	for i := 0; i <= n; i++ {
		u := a + float64(i)*h
		c := 2.0
		switch {
		case i == 0 || i == n:
			c = 1
		case i%2 == 1:
			c = 4
		}
		visit(u, c*h/3)
	}
}

// regionIntegrate integrates an unsampled-seed region (lo, 1] with a known
// interior kink where the integrand changes analytic form (and, for
// max^(HT), jumps). Three numerical hazards are handled:
//
//   - the kink itself: the interval is split there, shrunk by a relative
//     epsilon so a jump exactly at the kink is never sampled on the wrong
//     side;
//   - the open lower boundary: max^(HT) jumps at u = lo, so the lower limit
//     is nudged strictly inside the region;
//   - lo = 0 with a logarithmic singularity of max^(L) at u = 0 (revealed
//     bound → 0): the first piece is integrated under the substitution
//     u = t², which regularizes ∫ ln(1/u) du at the origin.
func regionIntegrate(lo, kink float64, n int, visit func(u, w float64)) {
	const eps = 1e-9
	if lo == 0 {
		c := kink
		if c <= 0 || c > 1 {
			c = 1
		}
		integrate1D(0, math.Sqrt(c*(1-eps)), n, func(t, w float64) {
			visit(t*t, 2*t*w)
		})
		if c < 1 {
			integrate1D(c+eps*(1-c), 1, n, visit)
		}
		return
	}
	a := lo + eps*(1-lo)
	if kink <= a || kink >= 1 {
		integrate1D(a, 1, n, visit)
		return
	}
	integrate1D(a, kink-eps*(1-lo), n, visit)
	integrate1D(kink+eps*(1-lo), 1, n, visit)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func incl(v, tau float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Min(1, v/tau)
}

// Closed-form variances from the paper.

// VarHT returns the generic inverse-probability variance f²(1/p − 1),
// equation (1).
//
//summarylint:ignore equation (1); the tests of internal/core (merge_test.go) and internal/experiments (figure6/figure7/multiperiod) share it
func VarHT(f, p float64) float64 {
	if f == 0 {
		return 0
	}
	return f * f * (1/p - 1)
}

// VarMaxHTOblivious2 is the variance of max^(HT) on (v1, v2) under
// weight-oblivious Poisson sampling (equation (10) for r = 2).
//
//summarylint:ignore equation (10), pinned by TestVarianceClosedFormsHalf; internal/experiments' tests (the Figure 1 checkpoints) share it
func VarMaxHTOblivious2(p1, p2, v1, v2 float64) float64 {
	return VarHT(math.Max(v1, v2), p1*p2)
}

// VarMaxL2Half is the variance of max^(L) at p1 = p2 = 1/2 (Figure 1):
// (11/9)·max² + (8/9)·min² − (16/9)·max·min.
//
//summarylint:ignore Figure 1 VAR[max^(L)] at p = 1/2, pinned by TestVarianceClosedFormsHalf; ROADMAP item 1 names it an oracle
func VarMaxL2Half(v1, v2 float64) float64 {
	mx, mn := math.Max(v1, v2), math.Min(v1, v2)
	return 11.0/9.0*mx*mx + 8.0/9.0*mn*mn - 16.0/9.0*mx*mn
}

// VarORHT is the variance of OR^(HT) on any vector with OR(v) = 1
// (equation (23)).
func VarORHT(p []float64) float64 {
	prod := 1.0
	for _, pi := range p {
		prod *= pi
	}
	return 1/prod - 1
}

// VarORL11 is the variance of OR^(L) on data (1,1) (equation (24)).
//
//summarylint:ignore equation (24), pinned by TestORVarianceClosedForms; ROADMAP item 1 names it an oracle
func VarORL11(p1, p2 float64) float64 {
	return 1/(p1+p2-p1*p2) - 1
}

// VarORL10 is the variance of OR^(L) on data (1,0) (§4.3), with entry 1
// being the positive one.
//
//summarylint:ignore §4.3 VAR[OR^(L)] on (1,0), pinned by TestORVarianceClosedForms; ROADMAP item 1 names it an oracle
func VarORL10(p1, p2 float64) float64 {
	q := p1 + p2 - p1*p2
	a := 1/q - 1
	b := 1/(p1*q) - 1
	return (1 - p1) + p1*(1-p2)*a*a + p1*p2*b*b
}
