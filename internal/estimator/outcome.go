// Package estimator implements the paper's unbiased estimators for
// multi-instance functions over sampled data vectors, together with the
// machinery to derive, validate and measure them.
//
// The estimated quantity is f(v) for a single key's value vector
// v = (v_1,…,v_r) across r dispersed instances. An estimator sees only an
// outcome: which entries were sampled, their exact values, and — in the
// "known seeds" model — the random seeds used by the sampling scheme.
//
// Three outcome models are supported, mirroring the paper's sections:
//
//   - ObliviousOutcome: weight-oblivious Poisson sampling (§4) — entry i is
//     sampled with probability p_i independently of its value.
//   - BinaryKnownSeedsOutcome: weighted Poisson sampling of binary data with
//     known seeds (§5.1), reducible to the oblivious model.
//   - PPSOutcome: weighted Poisson PPS sampling of nonnegative reals with
//     known seeds (§5.2).
package estimator

// ObliviousOutcome is the outcome of weight-oblivious Poisson sampling of a
// data vector: entry i was sampled independently with probability P[i]; for
// sampled entries the exact value (possibly zero) is known.
type ObliviousOutcome struct {
	// P holds the per-entry inclusion probabilities, all in (0, 1].
	P []float64
	// Sampled marks which entries were sampled.
	Sampled []bool
	// Values holds the exact values of sampled entries; entries with
	// Sampled[i]==false are ignored.
	Values []float64
}

// r returns the number of entries (instances).
func (o ObliviousOutcome) r() int { return len(o.P) }

// BinaryKnownSeedsOutcome is the outcome of weighted Poisson sampling of a
// binary data vector with known seeds (§5.1): entry i is sampled iff
// v_i = 1 and U[i] ≤ P[i]. Because the seed is known, an unsampled entry
// with U[i] ≤ P[i] is revealed to be zero.
type BinaryKnownSeedsOutcome struct {
	// P holds the inclusion probabilities of one-valued entries.
	P []float64
	// U holds the known uniform seeds.
	U []float64
	// Sampled marks the entries included in the sample (all have value 1).
	Sampled []bool
}

// ToOblivious maps the outcome to the equivalent weight-oblivious outcome
// (the 1-1 information-preserving mapping of §5): entry i is "sampled" in
// the oblivious sense iff U[i] ≤ P[i]; its revealed value is 1 when i was in
// the weighted sample and 0 otherwise.
//
//summarylint:ignore §5 known-seeds-to-oblivious mapping; the reference loops of internal/core (query_ref_test.go, query_test.go) share it
func (o BinaryKnownSeedsOutcome) ToOblivious() ObliviousOutcome {
	r := len(o.P)
	return o.toObliviousInto(make([]bool, r), make([]float64, r))
}

// toObliviousInto is ToOblivious over caller-owned scratch: the returned
// outcome's Sampled and Values are the first len(o.P) elements of the
// passed slices (each must be at least that long; prior contents are
// overwritten), so a per-key loop maps every outcome without allocating.
//
//summarylint:hot
func (o BinaryKnownSeedsOutcome) toObliviousInto(sampled []bool, values []float64) ObliviousOutcome {
	r := len(o.P)
	out := ObliviousOutcome{P: o.P, Sampled: sampled[:r], Values: values[:r]}
	for i := 0; i < r; i++ {
		switch {
		case o.Sampled[i]:
			out.Sampled[i], out.Values[i] = true, 1
		case o.U[i] <= o.P[i]:
			out.Sampled[i], out.Values[i] = true, 0
		default:
			out.Sampled[i], out.Values[i] = false, 0
		}
	}
	return out
}

// PPSOutcome is the outcome of independent Poisson PPS sampling with known
// seeds (§5.2): entry i is sampled iff V[i] ≥ U[i]·Tau[i], i.e. with
// probability min{1, V[i]/Tau[i]}. For an unsampled entry the known seed
// yields the upper bound V[i] < U[i]·Tau[i].
type PPSOutcome struct {
	// Tau holds the per-entry PPS thresholds τ*_i > 0.
	Tau []float64
	// U holds the known uniform seeds.
	U []float64
	// Sampled marks the sampled entries.
	Sampled []bool
	// Values holds the exact values of sampled entries.
	Values []float64
}

// r returns the number of entries.
func (o PPSOutcome) r() int { return len(o.Tau) }

// maxSampled returns the maximum sampled value, or 0 when S is empty.
func (o PPSOutcome) maxSampled() float64 {
	m := 0.0
	for i, s := range o.Sampled {
		if s && o.Values[i] > m {
			m = o.Values[i]
		}
	}
	return m
}

// SamplePPS materializes the PPS outcome for data vector v with seeds u and
// thresholds tau. It is the reference sampling procedure of the tests and
// benchmarks.
//
//summarylint:ignore the reference sampler shared by the estimator tests and bench_test.go (BenchmarkMaxL2PPS, BenchmarkMaxHTPPS)
func SamplePPS(v, u, tau []float64) PPSOutcome {
	r := len(v)
	o := PPSOutcome{Tau: tau, U: u, Sampled: make([]bool, r), Values: make([]float64, r)}
	for i := 0; i < r; i++ {
		if v[i] >= u[i]*tau[i] && v[i] > 0 {
			o.Sampled[i] = true
			o.Values[i] = v[i]
		}
	}
	return o
}

// SampleOblivious materializes the weight-oblivious outcome for data vector
// v with seeds u and inclusion probabilities p.
//
//summarylint:ignore the reference sampler shared by the estimator tests and bench_test.go (BenchmarkMaxHTOblivious)
func SampleOblivious(v, u, p []float64) ObliviousOutcome {
	r := len(v)
	o := ObliviousOutcome{P: p, Sampled: make([]bool, r), Values: make([]float64, r)}
	for i := 0; i < r; i++ {
		if u[i] < p[i] {
			o.Sampled[i] = true
			o.Values[i] = v[i]
		}
	}
	return o
}
