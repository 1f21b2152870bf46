package estimator

import (
	"fmt"
	"math"
	"sort"
)

// This file implements a generic f̂(U) — Algorithm 2 of §3 — for
// weight-oblivious Poisson sampling over finite discrete domains. Data
// vectors are partitioned into ordered batches; each batch's outcomes are
// assigned jointly, minimizing the batch's total variance subject to
// unbiasedness for every batch member and to the nonnegativity
// constraints (9) toward later batches.
//
// The paper asks for a "locally Pareto optimal" assignment per batch;
// minimizing the sum of the batch variances is the natural symmetric
// scalarization, and on the constructions the paper works out (the
// ordered partition by number of positive entries) it reproduces the
// symmetric estimator max^(U) exactly — cross-validated in
// deriveu_test.go.

// BatchFunc assigns a data vector to its batch index U_h; batches are
// processed in increasing index order.
type BatchFunc func(v []float64) int

// PositivesBatch is the §4.2 partition for max^(U): batch index = number
// of positive entries.
func PositivesBatch(v []float64) int { return positives(v) }

// DeriveU runs the batch construction. The returned estimator is
// nonnegative whenever the per-batch QPs admit nonnegative solutions (the
// x ≥ 0 constraints are imposed explicitly).
func DeriveU(p DiscreteProblem, batch BatchFunc) (*Derived, error) {
	r := len(p.P)
	if len(p.Domains) != r {
		return nil, fmt.Errorf("estimator: %d probabilities but %d domains", r, len(p.Domains))
	}
	vectors := enumerate(p.Domains)
	// Group vectors by batch.
	groups := map[int][][]float64{}
	var order []int
	for _, v := range vectors {
		h := batch(v)
		if _, ok := groups[h]; !ok {
			order = append(order, h)
		}
		groups[h] = append(groups[h], v)
	}
	sort.Ints(order)
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
	for gi, h := range order {
		batchVecs := groups[h]
		// New outcomes touched by this batch, indexed for the QP.
		index := map[string]int{}
		var keys []string
		var weights []float64
		touch := func(mask int, v []float64) int {
			key := outcomeKey(mask, v)
			if _, ok := d.estimate[key]; ok {
				return -1
			}
			if i, ok := index[key]; ok {
				return i
			}
			index[key] = len(keys)
			keys = append(keys, key)
			weights = append(weights, 0)
			return len(keys) - 1
		}
		// Unbiasedness equality per batch vector; also accumulate the QP
		// weights Σ_{v∈batch} PR[S|v] so the objective is the batch's
		// total variance.
		var eqs []qpConstraint
		for _, v := range batchVecs {
			coeff := make(map[int]float64)
			f0 := 0.0
			for mask := 0; mask < 1<<uint(r); mask++ {
				key := outcomeKey(mask, v)
				if x, ok := d.estimate[key]; ok {
					f0 += prS[mask] * x
					continue
				}
				i := touch(mask, v)
				coeff[i] += prS[mask]
				weights[i] += prS[mask]
			}
			need := p.F(v) - f0
			if len(coeff) == 0 {
				if math.Abs(need) > tol {
					return nil, fmt.Errorf("%w: vector %v needs estimate mass %v but has no unprocessed outcomes", errNoUnbiased, v, need)
				}
				continue
			}
			row := qpConstraint{a: make([]float64, len(keys)), d: need}
			for i, c := range coeff {
				row.a[i] = c
			}
			eqs = append(eqs, row)
		}
		if len(keys) == 0 {
			continue
		}
		// Pad earlier equality rows to the final variable count.
		for i := range eqs {
			for len(eqs[i].a) < len(keys) {
				eqs[i].a = append(eqs[i].a, 0)
			}
		}
		// Inequality constraints (9) toward later batches, plus x ≥ 0.
		var cons []qpConstraint
		for _, hh := range order[gi+1:] {
			for _, vp := range groups[hh] {
				coeff := make([]float64, len(keys))
				assigned := 0.0
				touches := false
				for mask := 0; mask < 1<<uint(r); mask++ {
					key := outcomeKey(mask, vp)
					if x, ok := d.estimate[key]; ok {
						assigned += prS[mask] * x
						continue
					}
					if i, ok := index[key]; ok {
						coeff[i] += prS[mask]
						touches = true
					}
				}
				if touches {
					cons = append(cons, qpConstraint{a: coeff, d: p.F(vp) - assigned})
				}
			}
		}
		for i := range keys {
			a := make([]float64, len(keys))
			a[i] = -1
			cons = append(cons, qpConstraint{a: a, d: 0})
		}
		x, err := solveQP(weights, eqs, cons)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", h, err)
		}
		for i, k := range keys {
			d.estimate[k] = x[i]
			if x[i] < d.MinEstimate {
				d.MinEstimate = x[i]
			}
		}
	}
	if math.IsInf(d.MinEstimate, 1) {
		d.MinEstimate = 0
	}
	return d, nil
}
