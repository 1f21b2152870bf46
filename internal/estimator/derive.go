package estimator

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// This file holds the paper's §3 derivation procedure for weight-oblivious
// Poisson sampling over finite discrete value domains: one engine, derive,
// and three entry points. The engine walks the data vectors in ordered
// batches; each batch gives the outcomes it reaches first the values that
// minimise the batch's total variance, subject to unbiasedness on each of
// its vectors and, when constrained, to nonnegativity and the constraints
// (9) toward every later vector.
//
//   - Derive is Algorithm 1, f̂(≺): the vectors one at a time in a
//     linearization of ≺, unconstrained.
//   - DerivePlus is f̂(+≺): the same singleton batches, constrained.
//   - DeriveU is Algorithm 2, f̂(U): the vectors grouped by a BatchFunc,
//     constrained. The paper asks for a "locally Pareto optimal"
//     assignment per batch; the sum of the batch's variances is the
//     natural symmetric scalarization, and on the ordered partition by
//     number of positive entries it reproduces max^(U) exactly.
//
// The engine cross-validates every closed-form estimator in this package
// on small discrete domains, demonstrates the failure modes (no unbiased
// estimator, forced negativity) of §3 and §6, and derives estimators for
// functions the paper does not treat in closed form.

// DiscreteProblem specifies a derivation instance.
type DiscreteProblem struct {
	// P holds the per-entry inclusion probabilities, all in (0, 1).
	P []float64
	// Domains holds the finite value domain of each entry, in ascending
	// order (e.g. {0, 1} for Boolean entries). Two members of one domain
	// must be more than 1e-9 apart.
	Domains [][]float64
	// F is the estimated function.
	F func(v []float64) float64
	// Less is the strict order ≺ on data vectors; vectors are processed in
	// a linearization of this order (ties broken deterministically by
	// lexicographic value order). It must place the all-consistent minimum
	// first for the derivation to match the paper's constructions.
	Less func(a, b []float64) bool
}

// Derived is a fully materialized estimator table produced by Derive,
// DerivePlus or DeriveU: one estimate per outcome (sampled set plus
// sampled values).
type Derived struct {
	problem DiscreteProblem
	// estimate is keyed by outcome number: Σ stride[i]·(j+1) over the
	// sampled entries i, j being the sampled member's index in Domains[i].
	estimate map[int]float64
	stride   []int
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
	return derive(p, linearize(p), false, nil)
}

// linearize returns the data vectors as singleton batches in a
// linearization of p.Less. enumerate lists them in lexicographic value
// order (the domains are ascending), and the stable sort keeps that order
// among ties.
func linearize(p DiscreteProblem) [][][]float64 {
	vectors := enumerate(p.Domains)
	sort.SliceStable(vectors, func(i, j int) bool { return p.Less(vectors[i], vectors[j]) })
	batches := make([][][]float64, len(vectors))
	for i, v := range vectors {
		batches[i] = [][]float64{v}
	}
	return batches
}

// DerivePlus runs the constrained derivation. Unlike Derive, the
// resulting estimator is nonnegative whenever one exists for the order;
// the price is that outcomes determined by the same vector may carry
// different values (the QP splits mass to respect constraints).
func DerivePlus(p DiscreteProblem) (*Derived, error) {
	batches := linearize(p)
	return derive(p, batches, true, func(b int) string { return fmt.Sprintf("vector %v", batches[b][0]) })
}

// BatchFunc assigns a data vector to its batch index U_h; batches are
// processed in increasing index order.
type BatchFunc func(v []float64) int

// PositivesBatch is the §4.2 partition for max^(U): batch index = number
// of positive entries.
func PositivesBatch(v []float64) int { return positives(v) }

// DeriveU runs the batch construction. The returned estimator is
// nonnegative whenever the per-batch QPs admit nonnegative solutions (the
// x ≥ 0 constraints are imposed explicitly). A QP error names the batch by
// its BatchFunc value.
func DeriveU(p DiscreteProblem, batch BatchFunc) (*Derived, error) {
	vectors := enumerate(p.Domains)
	sort.SliceStable(vectors, func(i, j int) bool { return batch(vectors[i]) < batch(vectors[j]) })
	var batches [][][]float64
	for _, v := range vectors {
		if n := len(batches); n == 0 || batch(v) != batch(batches[n-1][0]) {
			batches = append(batches, nil)
		}
		batches[len(batches)-1] = append(batches[len(batches)-1], v)
	}
	return derive(p, batches, true, func(b int) string { return fmt.Sprintf("batch %d", batch(batches[b][0])) })
}

// derive is the engine behind Derive, DerivePlus and DeriveU. The
// outcomes a batch reaches first get the values that minimise
// Σ_{v∈batch} VAR[f̂|v] subject to E[f̂|v] = f(v) for each v in the batch
// and, when constrained, to x ≥ 0 and E[f̂|v'] ≤ f(v') for every later
// v' (9). An unconstrained batch must be one vector; its optimum is the
// common value need/mass on every new outcome.
//
// A vector whose new outcomes have mass ≤ 1e-9 adds no equation and must
// already be met within 1e-9; a batch in which no vector adds one gives
// its new outcomes 0. name labels a batch in a QP error.
func derive(p DiscreteProblem, batches [][][]float64, constrained bool, name func(batch int) string) (*Derived, error) {
	r := len(p.P)
	if len(p.Domains) != r {
		return nil, fmt.Errorf("estimator: %d probabilities but %d domains", r, len(p.Domains))
	}
	d := &Derived{problem: p, estimate: map[int]float64{}, stride: make([]int, r), MinEstimate: math.Inf(1)}
	for i, n := 0, 1; i < r; i++ {
		dom := p.Domains[i]
		for j := 1; j < len(dom); j++ {
			for _, y := range dom[:j] {
				if math.Abs(dom[j]-y) <= 1e-9 {
					return nil, fmt.Errorf("estimator: domain of entry %d has members %v and %v within 1e-9 of each other", i, y, dom[j])
				}
			}
		}
		d.stride[i] = n
		n *= len(dom) + 1
	}
	prS := outcomeProbs(p.P)
	// reach[b][k][mask] is the outcome vector k of batch b yields when
	// mask is the sampled set.
	reach := make([][][]int, len(batches))
	for b, batch := range batches {
		for _, v := range batch {
			out := make([]int, len(prS))
			for mask := range out {
				for i, x := range v {
					if mask&(1<<uint(i)) != 0 {
						out[mask] += d.stride[i] * (member(p.Domains[i], x) + 1)
					}
				}
			}
			reach[b] = append(reach[b], out)
		}
	}
	const tol = 1e-9
	for b, batch := range batches {
		slot := map[int]int{} // new outcome → its QP variable
		var newOut []int
		var w []float64 // Σ_{v∈batch} PR[S|v] on each new outcome
		var eqs []qpConstraint
		mass := 0.0
		for k, v := range batch {
			var a []float64
			f0, vmass := 0.0, 0.0
			for mask, o := range reach[b][k] {
				if x, ok := d.estimate[o]; ok {
					f0 += prS[mask] * x
					continue
				}
				i, ok := slot[o]
				if !ok {
					i = len(newOut)
					slot[o] = i
					newOut = append(newOut, o)
					w = append(w, 0)
				}
				for len(a) <= i {
					a = append(a, 0)
				}
				a[i] += prS[mask]
				w[i] += prS[mask]
				vmass += prS[mask]
			}
			need := p.F(v) - f0
			if vmass <= tol {
				if math.Abs(need) > tol {
					return nil, fmt.Errorf("%w: vector %v needs estimate mass %v but has no unprocessed outcomes", errNoUnbiased, v, need)
				}
				continue
			}
			eqs = append(eqs, qpConstraint{a: a, d: need})
			mass += vmass
		}
		x := make([]float64, len(newOut))
		switch {
		case len(eqs) == 0: // negligible mass: the new outcomes stay 0
		case !constrained:
			for i := range x {
				x[i] = eqs[0].d / mass
			}
		default:
			for i := range eqs {
				eqs[i].a = append(eqs[i].a, make([]float64, len(newOut)-len(eqs[i].a))...)
			}
			// (9) toward every later vector whose outcomes include a new
			// one, given the values assigned so far; then x ≥ 0.
			var cons []qpConstraint
			for lb, later := range batches[b+1:] {
				for k, v := range later {
					a := make([]float64, len(newOut))
					assigned, touches := 0.0, false
					for mask, o := range reach[b+1+lb][k] {
						if x, ok := d.estimate[o]; ok {
							assigned += prS[mask] * x
						} else if i, ok := slot[o]; ok {
							a[i] += prS[mask]
							touches = true
						}
					}
					if touches {
						cons = append(cons, qpConstraint{a: a, d: p.F(v) - assigned})
					}
				}
			}
			for i := range newOut {
				a := make([]float64, len(newOut))
				a[i] = -1
				cons = append(cons, qpConstraint{a: a, d: 0})
			}
			var err error
			if x, err = solveQP(w, eqs, cons); err != nil {
				return nil, fmt.Errorf("%s: %w", name(b), err)
			}
		}
		for i, o := range newOut {
			d.estimate[o] = x[i]
			if len(eqs) > 0 && x[i] < d.MinEstimate {
				d.MinEstimate = x[i]
			}
		}
	}
	if math.IsInf(d.MinEstimate, 1) {
		d.MinEstimate = 0
	}
	return d, nil
}

// Estimate looks up the derived estimate for an outcome. A sampled value
// stands for the domain member within 1e-9 of it.
func (d *Derived) Estimate(o ObliviousOutcome) (float64, error) {
	out := 0
	for i, s := range o.Sampled {
		if !s {
			continue
		}
		j := member(d.problem.Domains[i], o.Values[i])
		if j < 0 {
			return 0, fmt.Errorf("estimator: value %v not in domain of entry %d", o.Values[i], i)
		}
		out += d.stride[i] * (j + 1)
	}
	x, ok := d.estimate[out]
	if !ok {
		return 0, fmt.Errorf("estimator: outcome not covered by derivation")
	}
	return x, nil
}

// Nonnegative reports whether the derived estimator is nonnegative.
func (d *Derived) Nonnegative() bool { return d.MinEstimate >= -1e-9 }

// Len returns the number of distinct outcomes in the table.
func (d *Derived) Len() int { return len(d.estimate) }

// String renders a derived estimator's table for debugging and docs, one
// outcome a line: each sampled member printed with %.9g, an unsampled
// entry as "-", the lines in lexicographic order of that rendering.
func (d *Derived) String() string {
	lines := make([]string, 0, len(d.estimate))
	for o, x := range d.estimate {
		var k strings.Builder
		for i, dom := range d.problem.Domains {
			if j := o / d.stride[i] % (len(dom) + 1); j > 0 {
				fmt.Fprintf(&k, "%.9g|", dom[j-1])
			} else {
				k.WriteString("-|")
			}
		}
		lines = append(lines, fmt.Sprintf("%-24s %.6g\n", k.String(), x))
	}
	sort.Strings(lines)
	return strings.Join(lines, "")
}

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

// member returns the index of the first member of dom within 1e-9 of x,
// or −1.
func member(dom []float64, x float64) int {
	for j, y := range dom {
		if math.Abs(y-x) <= 1e-9 {
			return j
		}
	}
	return -1
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
