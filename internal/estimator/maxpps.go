package estimator

import "math"

// MaxL2PPS is the order-based Pareto-optimal estimator max^(L) for the
// maximum of two entries under independent Poisson PPS sampling with known
// seeds (§5.2, Figure 3, Appendix A).
//
// The estimate is a function of the determining vector φ(S): sampled
// entries keep their values; an unsampled entry i is set to
// min{max sampled value, U[i]·Tau[i]} — the partial information revealed by
// the known seed. The closed form (MaxL2PPSDetermining) has four regimes
// depending on where the determining vector falls relative to the
// thresholds; two regimes involve logarithmic terms from integrating the
// variance-optimality ODE of Appendix A.
//
// MaxL2PPS dominates MaxHTPPS with a variance ratio of at least
// (1+ρ)/ρ ≥ 2 where ρ = max(v)/τ* (for τ1 = τ2 = τ*).
func MaxL2PPS(o PPSOutcome) float64 {
	if o.R() != 2 {
		panic("estimator: MaxL2PPS requires r=2")
	}
	_, l := MaxPPS2(o.Sampled[0], o.Sampled[1], o.Values[0], o.Values[1], o.U[0]*o.Tau[0], o.U[1]*o.Tau[1], o.Tau[0], o.Tau[1])
	return l
}

// MaxPPS2 is the r = 2 per-key kernel: max^(HT) (MaxHTPPS) and max^(L)
// (MaxL2PPS) of one outcome from a single pass over scalars. Entry i is
// sampled (s_i) with value v_i, or unsampled with revealed upper bound
// b_i = u_i·τ_i; v_i is read only when s_i holds and b_i only when it does
// not, so a caller never needs the seed of a sampled entry.
//
//summarylint:hot
func MaxPPS2(s0, s1 bool, v0, v1, b0, b1, tau0, tau1 float64) (ht, l float64) {
	if !s0 && !s1 {
		return 0, 0
	}
	m := 0.0 // the maximum sampled value
	if s0 && v0 > m {
		m = v0
	}
	if s1 && v1 > m {
		m = v1
	}
	// Determining vector: an unsampled entry gets min{m, b}. A bound above
	// m leaves the max undetermined, which is where max^(HT) is 0.
	determined := m > 0
	if !s0 {
		v0 = b0
		if b0 > m {
			v0, determined = m, false
		}
	}
	if !s1 {
		v1 = b1
		if b1 > m {
			v1, determined = m, false
		}
	}
	if determined {
		if p := math.Min(1, m/tau0) * math.Min(1, m/tau1); p > 0 {
			ht = m / p
		}
	}
	return ht, MaxL2PPSDetermining(v0, v1, tau0, tau1)
}

// MaxL2PPSDetermining evaluates max^(L) as a function of the determining
// vector (v1, v2) and thresholds (tau1, tau2) — the bottom table of
// Figure 3. The function is symmetric under exchanging entry 1 and entry 2
// together with their thresholds.
func MaxL2PPSDetermining(v1, v2, tau1, tau2 float64) float64 {
	a, b, ta, tb := v1, v2, tau1, tau2
	if b > a {
		a, b, ta, tb = b, a, tb, ta
	}
	if a <= 0 {
		return 0
	}
	if b <= 0 {
		// Measure-zero corner (a seed of exactly 0); take the limit from
		// the smallest representable positive value so the logarithmic
		// terms stay finite.
		b = math.SmallestNonzeroFloat64
	}
	switch {
	case b >= tb:
		// v1 ≥ v2 ≥ τ2*: both entries' order is pinned down; only the
		// larger entry's inclusion is uncertain.
		return b + (a-b)/math.Min(1, a/ta)
	case a >= ta:
		// v1 ≥ τ1*, v2 ≤ min{τ2*, v1}: the max is sampled with certainty.
		return a
	case a <= tb:
		// v2 ≤ v1 ≤ min{τ1*, τ2*}. The log ratio is computed as a
		// difference of logarithms so a denormal b cannot overflow the
		// quotient.
		T := ta + tb
		est := ta * tb / (T - a)
		coef := ta * tb * (ta - a) / (a * T)
		if a == b {
			// Equal entries — equation (25), and the common outcome: a key
			// sampled in one instance whose other seed bound exceeds its
			// value. (T−b)·a and b·(T−a) are then one and the same IEEE
			// product x, so the logarithms cancel to exactly 0 and the
			// last term's numerator is exactly 0: both terms are ±0 and
			// est (never −0: τ_a, τ_b > 0 in this regime) is already the
			// answer, bit for bit — provided log x is finite, coef·0 is 0
			// and not NaN, and the last denominator x·(T−a) is not 0.
			// Where that guard fails the full expression is NaN, and the
			// fall-through keeps it so.
			if x := a * (T - a); x > 0 && x <= math.MaxFloat64 && x*(T-a) > 0 && math.Abs(coef) <= math.MaxFloat64 {
				return est
			}
		}
		est += coef * (math.Log((T-b)*a) - math.Log(b*(T-a)))
		est += (a - b) * ta * tb * (ta - a) / (a * (T - b) * (T - a))
		return est
	default:
		// v2 ≤ τ2* ≤ v1 ≤ τ1*.
		//
		// Erratum: equation (30) of the paper prints the logarithm as
		// ln(((τ1+τ2−v+∆)·τ1)/(τ2·(τ1+τ2−v))), which is discontinuous at
		// the v2 = τ2 boundary with the first case and does not integrate
		// g' of Appendix A from the stated lower limit. Evaluating
		// ∫_{v−τ2}^{∆} dx/((τ1+τ2−v+x)²(v−x)) with the footnote-2
		// antiderivative gives ln(((τ1+τ2−v2)·τ2)/(v2·τ1)) instead; this
		// form is continuous at both case boundaries and exact-moment
		// integration confirms unbiasedness (see TestMaxPPSUnbiased).
		T := ta + tb
		est := ta + tb - ta*tb/a
		est += ta * tb * (ta - a) / (a * T) * (math.Log((T-b)*tb) - math.Log(b*ta))
		est += tb * (ta - a) * (tb - b) / ((T - b) * a)
		return est
	}
}

// MaxL2PPSEqual evaluates max^(L) on a determining vector with two equal
// entries (Appendix A, equation (25)); exposed for cross-validation against
// the general closed form.
func MaxL2PPSEqual(v, tau1, tau2 float64) float64 {
	if v <= 0 {
		return 0
	}
	q1 := math.Min(1, v/tau1)
	q2 := math.Min(1, v/tau2)
	return v / (q1 + (1-q1)*q2)
}
