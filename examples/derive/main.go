// Derive your own estimator. The paper's conclusion hopes that "tedious
// derivations of estimators can be replaced by automated tools" — this
// example is that tool in action.
//
// We pick a function the paper gives no closed form for — the SECOND
// largest of three entries (a quantile with 1 < ℓ < r, for which plain HT
// is provably suboptimal, §4) — and derive estimators for it on a
// discrete domain with the generic engines:
//
//   - Algorithm 1 (plain order-based f̂(≺)) under the dense-first order:
//     unbiased but NOT nonnegative here, demonstrating why the paper
//     develops the constrained constructions;
//   - f̂(+≺): the same order with the nonnegativity constraints (9)
//     enforced by a small QP;
//   - Algorithm 2 (f̂(U)): sparse-first batches, symmetric and nonnegative.
//
// Run with: go run ./examples/derive (its output is pinned by
// testdata/derive.golden; go test ./examples/derive -update re-records it).
package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/estimator"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run derives the three estimators and writes their report to w.
func run(w io.Writer) error {
	second := func(v []float64) float64 {
		s := append([]float64(nil), v...)
		sort.Sort(sort.Reverse(sort.Float64Slice(s)))
		return s[1]
	}
	prob := estimator.DiscreteProblem{
		P:       []float64{0.4, 0.4, 0.4},
		Domains: [][]float64{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}},
		F:       second,
		Less:    estimator.MaxLOrder, // dense-first order, as for max^(L)
	}

	fmt.Fprintln(w, "deriving estimators for the 2nd-largest of 3 entries, p=0.4, domain {0,1,2}³")

	plain, err := estimator.Derive(prob)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nAlgorithm 1, dense-first:  min estimate %.4g → NOT nonnegative;\n", plain.MinEstimate)
	fmt.Fprintln(w, "  (unbiased, but a negative estimator is outside the §2.1 desiderata —")
	fmt.Fprintln(w, "   this is the failure mode that motivates f̂(+≺) and f̂(U).)")

	dense, err := estimator.DerivePlus(prob)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nf̂(+≺), dense-first:       %d outcomes, min estimate %.4g (nonnegative: %v)\n",
		dense.Len(), dense.MinEstimate, dense.Nonnegative())

	sparse, err := estimator.DeriveU(estimator.DiscreteProblem{
		P: prob.P, Domains: prob.Domains, F: prob.F, Less: estimator.SparseOrder,
	}, estimator.PositivesBatch)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Algorithm 2, sparse-first: %d outcomes, min estimate %.4g (nonnegative: %v)\n",
		sparse.Len(), sparse.MinEstimate, sparse.Nonnegative())

	ht := func(o estimator.ObliviousOutcome) float64 {
		return estimator.HTOblivious(o, second)
	}
	wrap := func(d *estimator.Derived) func(estimator.ObliviousOutcome) float64 {
		return func(o estimator.ObliviousOutcome) float64 {
			x, err := d.Estimate(o)
			if err != nil {
				panic(err) // the table covers every outcome of the domain
			}
			return x
		}
	}

	fmt.Fprintln(w, "\nexact variances (enumeration over all outcomes):")
	fmt.Fprintf(w, "%-10s %10s %14s %14s\n", "data", "HT", "dense f̂(+≺)", "sparse f̂(U)")
	for _, v := range [][]float64{
		{2, 2, 2}, {2, 2, 1}, {2, 1, 1}, {2, 1, 0}, {1, 1, 0}, {2, 2, 0}, {1, 0, 0},
	} {
		mean, varHT := estimator.ObliviousMoments(prob.P, v, ht)
		if math.Abs(mean-second(v)) > 1e-9 {
			return fmt.Errorf("HT biased on %v: mean %v", v, mean)
		}
		meanD, varD := estimator.ObliviousMoments(prob.P, v, wrap(dense))
		meanS, varS := estimator.ObliviousMoments(prob.P, v, wrap(sparse))
		if math.Abs(meanD-second(v)) > 1e-9 || math.Abs(meanS-second(v)) > 1e-9 {
			return fmt.Errorf("derived estimator biased on %v: means %v, %v", v, meanD, meanS)
		}
		fmt.Fprintf(w, "%-10s %10.4g %14.4g %14.4g\n",
			fmt.Sprintf("(%g,%g,%g)", v[0], v[1], v[2]), varHT, varD, varS)
	}

	fmt.Fprintln(w, "\nBoth constrained estimators are unbiased, nonnegative, and far below HT")
	fmt.Fprintln(w, "everywhere. Neither dominates the other — dense-first wins on fully")
	fmt.Fprintln(w, "agreeing data, sparse-first on the rest — the same Pareto frontier the")
	fmt.Fprintln(w, "paper constructs by hand for max and OR.")
	return nil
}
