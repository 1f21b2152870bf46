package estimator

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// MaxLUniform is the order-based estimator max^(L) for any number of
// instances r ≥ 2 under weight-oblivious Poisson sampling with uniform
// inclusion probability p (§4.1, Theorem 4.2, Algorithm 3).
//
// The estimate on an outcome S is a linear combination Σ_i α_i·u_i of the
// sorted determining vector u (the unsampled entries set to the maximum
// sampled value). The coefficients derive from prefix sums A_r,…,A_1
// computed by the triangular recurrence of Theorem 4.2 in O(r²) time.
type MaxLUniform struct {
	r     int
	p     float64
	alpha []float64 // alpha[i] is α_{i+1}
	a     []float64 // a[i] is the prefix sum A_{i+1} = Σ_{j≤i+1} α_j
}

// NewMaxLUniform precomputes the estimator coefficients for r entries
// sampled independently with probability p ∈ (0, 1].
func NewMaxLUniform(r int, p float64) (*MaxLUniform, error) {
	if r < 1 {
		return nil, fmt.Errorf("estimator: MaxLUniform needs r ≥ 1, got %d", r)
	}
	if !(p > 0 && p <= 1) {
		return nil, fmt.Errorf("estimator: MaxLUniform needs p ∈ (0,1], got %v", p)
	}
	a := make([]float64, r+1) // a[h] = A_h; a[0] unused
	q := 1 - p
	a[r] = 1 / (1 - math.Pow(q, float64(r)))
	// Theorem 4.2: for k = 0..r−2,
	//   A_{r−k−1} = (A_{r−k} + t_k) / (1 − (1−p)^{r−k−1})
	//   t_k = Σ_{ℓ=1}^{k} C(k,ℓ)·((1−p)/p)^ℓ ·
	//         (A_{r−k+ℓ} − (1 − (1−p)^{r−k−1})·A_{r−k+ℓ−1})
	for k := 0; k <= r-2; k++ {
		denom := 1 - math.Pow(q, float64(r-k-1))
		t := 0.0
		binom := 1.0 // C(k, ℓ) built incrementally
		ratio := q / p
		rl := 1.0
		for l := 1; l <= k; l++ {
			binom = binom * float64(k-l+1) / float64(l)
			rl *= ratio
			t += binom * rl * (a[r-k+l] - denom*a[r-k+l-1])
		}
		a[r-k-1] = (a[r-k] + t) / denom
	}
	alpha := make([]float64, r)
	alpha[0] = a[1]
	for h := 2; h <= r; h++ {
		alpha[h-1] = a[h] - a[h-1]
	}
	return &MaxLUniform{r: r, p: p, alpha: alpha, a: a}, nil
}

// Alpha returns a copy of the coefficient vector (α_1,…,α_r).
func (e *MaxLUniform) Alpha() []float64 {
	return append([]float64(nil), e.alpha...)
}

// PrefixSum returns A_h = Σ_{i≤h} α_i for h in [1, r].
func (e *MaxLUniform) PrefixSum(h int) float64 {
	if h < 1 || h > e.r {
		panic(fmt.Sprintf("estimator: PrefixSum index %d out of range [1,%d]", h, e.r))
	}
	return e.a[h]
}

// Estimate applies max^(L) to an outcome (Algorithm 3, function EST). The
// outcome must have r entries; the P field is ignored (the estimator's own
// uniform p applies).
//
//summarylint:ignore Algorithm 3 max^(L); the reference loops of internal/core (query_ref_test.go, query_test.go) share it
func (e *MaxLUniform) Estimate(o ObliviousOutcome) float64 {
	return e.estimateInto(o, make([]float64, 0, e.r))
}

// estimateInto is Estimate with caller-owned scratch: the sampled values
// are gathered and sorted in z's backing array (capacity at least r; prior
// contents are overwritten), so a per-key loop estimates without
// allocating.
//
//summarylint:hot
func (e *MaxLUniform) estimateInto(o ObliviousOutcome, z []float64) float64 {
	if o.r() != e.r {
		e.panicWrongR(o.r())
	}
	z = z[:0]
	for i, s := range o.Sampled {
		if s {
			//summarylint:ignore z has capacity r by contract and at most r entries are sampled
			z = append(z, o.Values[i])
		}
	}
	if len(z) == 0 {
		return 0
	}
	slices.SortFunc(z, descending)
	// Sorted determining vector: z1 repeated for the r−|S| unsampled
	// entries, then the sampled values in non-increasing order. Using the
	// prefix sum A_{r−|S|} collapses the repeated head.
	est := 0.0
	head := e.r - len(z)
	if head > 0 {
		est += e.a[head] * z[0]
	}
	for j, v := range z {
		est += e.alpha[head+j] * v
	}
	return est
}

// BinaryTableInto tabulates EstimateInto over binary outcomes — OR^(L),
// §5.1. With values in {0, 1} the sorted determining vector, and so the
// estimate, depends only on how many entries were sampled as ones and how
// many as (revealed) zeros: table[ones·(r+1)+zeros] receives EstimateInto's
// value on such an outcome, for every ones+zeros ≤ r. table needs (r+1)²
// elements; sampled, values (r each) and z (capacity r) are scratch.
func (e *MaxLUniform) BinaryTableInto(table []float64, sampled []bool, values, z []float64) {
	// EstimateInto reads only the length of P.
	o := ObliviousOutcome{P: values[:e.r], Sampled: sampled[:e.r], Values: values[:e.r]}
	for ones := 0; ones <= e.r; ones++ {
		for zeros := 0; ones+zeros <= e.r; zeros++ {
			for i := range o.Sampled {
				o.Sampled[i] = i < ones+zeros
				o.Values[i] = 0
				if i < ones {
					o.Values[i] = 1
				}
			}
			table[ones*(e.r+1)+zeros] = e.estimateInto(o, z)
		}
	}
}

func (e *MaxLUniform) panicWrongR(r int) {
	panic(fmt.Sprintf("estimator: outcome has r=%d entries, estimator built for r=%d", r, e.r))
}

// descending orders floats largest first (NaNs after everything): the
// order sort.Reverse(sort.Float64Slice) produces, as a plain function so
// sorting boxes nothing.
func descending(a, b float64) int { return cmp.Compare(b, a) }

// EstimateValues is a convenience wrapper taking the multiset of sampled
// values directly (order irrelevant); pass an empty slice for S = ∅.
//
//summarylint:ignore Algorithm 3 max^(L), pinned by TestMaxLUniformMonotoneQuick; bench_test.go (BenchmarkMaxLUniformEstimate) shares it
func (e *MaxLUniform) EstimateValues(sampledValues []float64) float64 {
	o := ObliviousOutcome{
		P:       make([]float64, e.r),
		Sampled: make([]bool, e.r),
		Values:  make([]float64, e.r),
	}
	for i := range o.P {
		o.P[i] = e.p
	}
	for i, v := range sampledValues {
		o.Sampled[i] = true
		o.Values[i] = v
	}
	return e.Estimate(o)
}
