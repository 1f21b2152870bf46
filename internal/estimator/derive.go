package estimator

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// This file implements the paper's Algorithm 1 — the generic order-based
// derivation of the estimator f̂(≺) — for weight-oblivious Poisson sampling
// over finite discrete value domains. It turns an order over data vectors
// into a concrete estimate table, solving the unbiasedness equations
// vector-by-vector in ≺ order.
//
// The engine serves three purposes:
//   1. cross-validating every closed-form estimator in this package on
//      small discrete domains,
//   2. demonstrating the failure modes (no unbiased estimator / forced
//      negativity) discussed in §3 and §6, and
//   3. deriving estimators for functions the paper does not treat in
//      closed form (ablation experiments).

// DiscreteProblem specifies a derivation instance.
type DiscreteProblem struct {
	// P holds the per-entry inclusion probabilities, all in (0, 1).
	P []float64
	// Domains holds the finite value domain of each entry, in ascending
	// order (e.g. {0, 1} for Boolean entries).
	Domains [][]float64
	// F is the estimated function.
	F func(v []float64) float64
	// Less is the strict order ≺ on data vectors; vectors are processed in
	// a linearization of this order (ties broken deterministically by
	// lexicographic value order). It must place the all-consistent minimum
	// first for the derivation to match the paper's constructions.
	Less func(a, b []float64) bool
}

// Derived is a fully materialized estimator table produced by Derive: one
// estimate per outcome (sampled set plus sampled values).
type Derived struct {
	problem  DiscreteProblem
	estimate map[string]float64
	// MinEstimate is the smallest estimate in the table; negative values
	// mean f̂(≺) exists but is not nonnegative (the case motivating the
	// constrained f̂(+≺) and partition-based f̂(U) constructions).
	MinEstimate float64
}

// errNoUnbiased is returned (wrapped) when no unbiased estimator consistent
// with the order exists: some data vector has zero probability of an
// unprocessed outcome while its expectation constraint is not yet met.
var errNoUnbiased = fmt.Errorf("estimator: no unbiased order-based estimator exists")

// Derive runs Algorithm 1. It returns an error wrapping errNoUnbiased when
// the unbiasedness equations are unsolvable.
func Derive(p DiscreteProblem) (*Derived, error) {
	r := len(p.P)
	if len(p.Domains) != r {
		return nil, fmt.Errorf("estimator: %d probabilities but %d domains", r, len(p.Domains))
	}
	vectors := enumerate(p.Domains)
	sort.SliceStable(vectors, func(i, j int) bool {
		if p.Less(vectors[i], vectors[j]) {
			return true
		}
		if p.Less(vectors[j], vectors[i]) {
			return false
		}
		return lexLess(vectors[i], vectors[j])
	})
	// Outcome probability PR[S] is value-independent under weight-oblivious
	// sampling; precompute per subset mask.
	prS := make([]float64, 1<<uint(r))
	for mask := range prS {
		w := 1.0
		for i := 0; i < r; i++ {
			if mask&(1<<uint(i)) != 0 {
				w *= p.P[i]
			} else {
				w *= 1 - p.P[i]
			}
		}
		prS[mask] = w
	}
	d := &Derived{problem: p, estimate: make(map[string]float64), MinEstimate: math.Inf(1)}
	const tol = 1e-9
	for _, v := range vectors {
		fv := p.F(v)
		var f0, prNew float64
		var newKeys []string
		for mask := 0; mask < 1<<uint(r); mask++ {
			key := outcomeKey(mask, v)
			if x, ok := d.estimate[key]; ok {
				f0 += prS[mask] * x
			} else {
				prNew += prS[mask]
				newKeys = append(newKeys, key)
			}
		}
		switch {
		case prNew <= tol:
			if math.Abs(fv-f0) > tol {
				return nil, fmt.Errorf("%w: vector %v needs estimate mass %v but has no unprocessed outcomes", errNoUnbiased, v, fv-f0)
			}
			for _, k := range newKeys {
				d.estimate[k] = 0
			}
		default:
			x := (fv - f0) / prNew
			for _, k := range newKeys {
				d.estimate[k] = x
			}
			if x < d.MinEstimate {
				d.MinEstimate = x
			}
		}
	}
	if math.IsInf(d.MinEstimate, 1) {
		d.MinEstimate = 0
	}
	return d, nil
}

// Estimate looks up the derived estimate for an outcome. The sampled values
// must be members of the entry domains (within 1e-9).
func (d *Derived) Estimate(o ObliviousOutcome) (float64, error) {
	mask := 0
	v := make([]float64, o.r())
	for i, s := range o.Sampled {
		if !s {
			continue
		}
		mask |= 1 << uint(i)
		v[i] = o.Values[i]
		if !inDomain(d.problem.Domains[i], o.Values[i]) {
			return 0, fmt.Errorf("estimator: value %v not in domain of entry %d", o.Values[i], i)
		}
	}
	x, ok := d.estimate[outcomeKey(mask, v)]
	if !ok {
		return 0, fmt.Errorf("estimator: outcome not covered by derivation")
	}
	return x, nil
}

// Nonnegative reports whether the derived estimator is nonnegative.
func (d *Derived) Nonnegative() bool { return d.MinEstimate >= -1e-9 }

// Len returns the number of distinct outcomes in the table.
func (d *Derived) Len() int { return len(d.estimate) }

// MaxLOrder is the §4.1 order for max^(L): the zero vector first, then
// ascending L(v) = #entries strictly below the maximum.
func MaxLOrder(a, b []float64) bool {
	za, zb := allZero(a), allZero(b)
	if za || zb {
		return za && !zb
	}
	return belowMax(a) < belowMax(b)
}

// SparseOrder is the §4.2 order for max^(U): ascending number of positive
// entries. Plain Algorithm 1 under this order generally yields negative
// estimates (motivating f̂(+≺)); Derive reports this via MinEstimate.
func SparseOrder(a, b []float64) bool {
	return positives(a) < positives(b)
}

func enumerate(domains [][]float64) [][]float64 {
	out := [][]float64{{}}
	for _, dom := range domains {
		var next [][]float64
		for _, prefix := range out {
			for _, x := range dom {
				v := append(append([]float64(nil), prefix...), x)
				next = append(next, v)
			}
		}
		out = next
	}
	return out
}

func outcomeKey(mask int, v []float64) string {
	var b strings.Builder
	for i := range v {
		if mask&(1<<uint(i)) != 0 {
			fmt.Fprintf(&b, "%.9g|", v[i])
		} else {
			b.WriteString("-|")
		}
	}
	return b.String()
}

func inDomain(dom []float64, x float64) bool {
	for _, d := range dom {
		if math.Abs(d-x) <= 1e-9 {
			return true
		}
	}
	return false
}

func lexLess(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

func belowMax(v []float64) int {
	m := maxOf(v)
	n := 0
	for _, x := range v {
		if x < m {
			n++
		}
	}
	return n
}

func positives(v []float64) int {
	n := 0
	for _, x := range v {
		if x > 0 {
			n++
		}
	}
	return n
}
