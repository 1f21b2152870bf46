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

import (
	"errors"
	"fmt"
)

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

// R returns the number of entries (instances).
func (o ObliviousOutcome) R() int { return len(o.P) }

// NumSampled returns |S|, the number of sampled entries.
func (o ObliviousOutcome) NumSampled() int {
	n := 0
	for _, s := range o.Sampled {
		if s {
			n++
		}
	}
	return n
}

// MaxSampled returns the maximum sampled value, or 0 when S is empty.
func (o ObliviousOutcome) MaxSampled() float64 {
	m := 0.0
	first := true
	for i, s := range o.Sampled {
		if !s {
			continue
		}
		if first || o.Values[i] > m {
			m = o.Values[i]
			first = false
		}
	}
	return m
}

// Validate checks structural invariants. Estimator functions assume a valid
// outcome; call Validate at trust boundaries.
func (o ObliviousOutcome) Validate() error {
	if len(o.Sampled) != len(o.P) || len(o.Values) != len(o.P) {
		return errors.New("estimator: outcome slices have mismatched lengths")
	}
	for i, p := range o.P {
		if !(p > 0 && p <= 1) {
			return fmt.Errorf("estimator: inclusion probability p[%d]=%v outside (0,1]", i, p)
		}
	}
	return nil
}

// DeterminingVector returns φ(S) under the §4.1 order: sampled entries keep
// their values and unsampled entries are set to the maximum sampled value
// (the ≺-minimal vector consistent with the outcome). For the empty outcome
// this is the zero vector.
func (o ObliviousOutcome) DeterminingVector() []float64 {
	m := o.MaxSampled()
	phi := make([]float64, o.R())
	for i := range phi {
		if o.Sampled[i] {
			phi[i] = o.Values[i]
		} else {
			phi[i] = m
		}
	}
	return phi
}

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
func (o BinaryKnownSeedsOutcome) ToOblivious() ObliviousOutcome {
	r := len(o.P)
	return o.ToObliviousInto(make([]bool, r), make([]float64, r))
}

// ToObliviousInto is ToOblivious over caller-owned scratch: the returned
// outcome's Sampled and Values are the first len(o.P) elements of the
// passed slices (each must be at least that long; prior contents are
// overwritten), so a per-key loop maps every outcome without allocating.
//
//summarylint:hot
func (o BinaryKnownSeedsOutcome) ToObliviousInto(sampled []bool, values []float64) ObliviousOutcome {
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

// R returns the number of entries.
func (o PPSOutcome) R() int { return len(o.Tau) }

// MaxSampled returns the maximum sampled value, or 0 when S is empty.
func (o PPSOutcome) MaxSampled() float64 {
	m := 0.0
	for i, s := range o.Sampled {
		if s && o.Values[i] > m {
			m = o.Values[i]
		}
	}
	return m
}

// UpperBound returns the revealed upper bound on entry i: the exact value
// when sampled, otherwise U[i]·Tau[i] (exclusive).
func (o PPSOutcome) UpperBound(i int) float64 {
	if o.Sampled[i] {
		return o.Values[i]
	}
	return o.U[i] * o.Tau[i]
}

// DeterminingVector returns φ(S) under the §5.2 order: 0 for the empty
// outcome; otherwise sampled entries keep their values and each unsampled
// entry i gets min{max sampled value, U[i]·Tau[i]}.
func (o PPSOutcome) DeterminingVector() []float64 {
	return o.DeterminingVectorInto(make([]float64, o.R()))
}

// DeterminingVectorInto is DeterminingVector over caller-owned scratch: it
// writes φ(S) into the first R() elements of phi (which must be at least
// that long; prior contents are overwritten) and returns that prefix.
//
//summarylint:hot
func (o PPSOutcome) DeterminingVectorInto(phi []float64) []float64 {
	phi = phi[:o.R()]
	m := o.MaxSampled()
	if o.NumSampled() == 0 {
		clear(phi)
		return phi
	}
	for i := range phi {
		if o.Sampled[i] {
			phi[i] = o.Values[i]
		} else {
			b := o.U[i] * o.Tau[i]
			if b > m {
				b = m
			}
			phi[i] = b
		}
	}
	return phi
}

// NumSampled returns |S|.
func (o PPSOutcome) NumSampled() int {
	n := 0
	for _, s := range o.Sampled {
		if s {
			n++
		}
	}
	return n
}

// SamplePPS materializes the PPS outcome for data vector v with seeds u and
// thresholds tau. It is the reference sampling procedure of the tests and
// benchmarks.
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

// SampleBinaryKnownSeeds materializes the weighted binary outcome for data
// vector v ∈ {0,1}^r with seeds u and one-value inclusion probabilities p.
func SampleBinaryKnownSeeds(v []float64, u, p []float64) BinaryKnownSeedsOutcome {
	r := len(v)
	o := BinaryKnownSeedsOutcome{P: p, U: u, Sampled: make([]bool, r)}
	for i := 0; i < r; i++ {
		o.Sampled[i] = v[i] > 0 && u[i] <= p[i]
	}
	return o
}
