// Command sampledemo walks the paper's worked example (Figure 5) end to
// end: the data matrix, shared-seed vs independent PPS rank assignments,
// the resulting bottom-3 samples, and subset-sum estimates from each
// sampling scheme on the example instances.
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/randx"
	"repro/internal/sampling"
)

func main() {
	for _, t := range experiments.Figure5() {
		t.Fprint(os.Stdout)
	}

	// Beyond the figure: draw each sampling scheme on instance 1 and show
	// the subset-sum machinery.
	in := dataset.FigureFive().Instances[0]
	total := in.Total()
	fmt.Printf("instance 1 total value: %g\n\n", total)

	s := core.NewSummarizer(42)
	pps := s.SummarizePPSExpectedSize(0, in, 3)
	fmt.Printf("Poisson PPS (expected size 3, tau=%.4g): %d keys, subset-sum estimate %.4g\n",
		pps.PPSTau(), pps.Size(), pps.SubsetSum(nil))

	bk := s.SummarizeBottomK(0, in, 3, sampling.PPS{})
	fmt.Printf("bottom-3 priority sample: %d keys, subset-sum estimate %.4g\n",
		bk.Size(), bk.SubsetSum(nil))

	bkExp := s.SummarizeBottomK(0, in, 3, sampling.EXP{})
	fmt.Printf("bottom-3 SWOR (EXP ranks): %d keys, subset-sum estimate %.4g\n",
		bkExp.Size(), bkExp.SubsetSum(nil))

	vo := sampling.NewVarOpt(3, randx.New(7))
	for h, v := range in {
		vo.Add(h, v)
	}
	vs := vo.Sample()
	fmt.Printf("VarOpt-3 sample (tau=%.4g): %d keys, subset-sum estimate %.4g\n",
		vs.Tau, len(vs.Adjusted), vs.SubsetSum(nil))
}
