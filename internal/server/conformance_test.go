package server

import (
	"fmt"
	"math"
	"net/url"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sampling"
	"repro/internal/simdata"
	"repro/pkg/api"
)

// conformanceSalts is the number of randomizations, salts 1…N, every case
// is drawn under. At 1024 a correct 95 % interval covers outside
// [93 %, 97 %] about one draw in 300.
const conformanceSalts = 1024

// accuracyForm is what a row's served stderr claims about its estimate.
type accuracyForm int

const (
	// noAccuracy: the row serves no accuracy block.
	noAccuracy accuracyForm = iota
	// unbiasedStdErr: stderr² is an unbiased estimate of the variance, so
	// stderr tracks the error from both sides.
	unbiasedStdErr
	// boundStdErr: stderr bounds the error from above.
	boundStdErr
)

// conformanceCase is one (query row, summary kind) cell: the summaries its
// draw makes under one salt, the request parameters, and the quantity the
// served estimates estimate.
type conformanceCase struct {
	name      string
	row, kind string // the queryKinds row and the summary kind it answers over
	params    url.Values
	draw      func(s *core.Summarizer) []core.Summary
	truth     float64
	// columns are the served estimates; the accuracy block annotates
	// columns[0].
	columns  []string
	accuracy accuracyForm
	// dominance: the paper proves L dominates HT for the row, so MSE(L) ≤
	// MSE(HT).
	dominance bool
}

// conformanceCases draws every case's population once. The weighted rows
// read the two-instance traffic workload; the distinct rows read three
// periods of a request log.
func conformanceCases() []conformanceCase {
	traffic := simdata.Generate(simdata.ScaledTraffic(10))
	in0, in1 := traffic.Instances[0], traffic.Instances[1]
	const (
		ppsSize = 200 // expected PPS summary size
		k       = 200 // bottom-k size
		p       = 0.3 // set-sampling probability
	)
	tau0, tau1 := sampling.TauForExpectedSize(in0, ppsSize), sampling.TauForExpectedSize(in1, ppsSize)
	pps := func(s *core.Summarizer) []core.Summary {
		return []core.Summary{s.SummarizePPS(0, in0, tau0), s.SummarizePPS(1, in1, tau1)}
	}

	// The quantile's key: the smallest shared key whose values in both
	// instances are sampled with probability in (0.3, 0.9).
	var key dataset.Key
	for _, h := range traffic.Keys() {
		v := traffic.Vector(h)
		if v[0] > 0.3*tau0 && v[0] < 0.9*tau0 && v[1] > 0.3*tau1 && v[1] < 0.9*tau1 {
			key = h
			break
		}
	}
	lowest := traffic.Vector(key)
	slices.Sort(lowest)

	log := simdata.RequestLog(2000, 3, 0.3, 0x5e7)
	sets := func(r int) func(s *core.Summarizer) []core.Summary {
		return func(s *core.Summarizer) []core.Summary {
			out := make([]core.Summary, r)
			for i := range out {
				out[i] = s.SummarizeSet(i, log[i], p)
			}
			return out
		}
	}
	union := func(r int) float64 {
		seen := make(map[dataset.Key]bool)
		for _, members := range log[:r] {
			for h := range members {
				seen[h] = true
			}
		}
		return float64(len(seen))
	}
	members0 := make(map[dataset.Key]bool, len(in0))
	for h := range in0 {
		members0[h] = true
	}

	return []conformanceCase{{
		name: "distinct/set r=2", row: "distinct", kind: "set",
		draw: sets(2), truth: union(2), columns: []string{"ht", "l"},
		accuracy: unbiasedStdErr, dominance: true,
	}, {
		name: "distinct/set r=3", row: "distinct", kind: "set",
		draw: sets(3), truth: union(3), columns: []string{"ht", "l"},
		accuracy: unbiasedStdErr, dominance: true,
	}, {
		name: "distinct/bottomk", row: "distinct", kind: "bottomk",
		draw: func(s *core.Summarizer) []core.Summary {
			return []core.Summary{s.SummarizeBottomK(0, in0, k, sampling.PPS{})}
		},
		// BottomKDistinctStdErr knows no bound for a finite threshold.
		truth: float64(len(in0)), columns: []string{"ht"},
	}, {
		name: "maxdominance/pps", row: "maxdominance", kind: "pps",
		draw: pps, truth: traffic.SumAggregate(dataset.Max, nil), columns: []string{"ht", "l"},
		dominance: true,
	}, {
		name: "quantile/pps", row: "quantile", kind: "pps",
		params: url.Values{"key": {fmt.Sprint(key)}, "l": {"2"}},
		draw:   pps, truth: lowest[0], columns: []string{"ht"},
	}, {
		name: "sum/pps", row: "sum", kind: "pps",
		draw: func(s *core.Summarizer) []core.Summary {
			return []core.Summary{s.SummarizePPS(0, in0, tau0)}
		},
		truth: in0.Total(), columns: []string{"sum"}, accuracy: unbiasedStdErr,
	}, {
		name: "sum/bottomk", row: "sum", kind: "bottomk",
		draw: func(s *core.Summarizer) []core.Summary {
			return []core.Summary{s.SummarizeBottomK(0, in0, k, sampling.PPS{})}
		},
		truth: in0.Total(), columns: []string{"sum"}, accuracy: boundStdErr,
	}, {
		name: "sum/set", row: "sum", kind: "set",
		draw: func(s *core.Summarizer) []core.Summary {
			return []core.Summary{s.SummarizeSet(0, members0, p)}
		},
		truth: float64(len(members0)), columns: []string{"sum"}, accuracy: unbiasedStdErr,
	}}
}

// servedColumns reads a row's result the way a client does: its estimate
// columns and its accuracy block.
func servedColumns(t *testing.T, res any) (map[string]float64, *api.Accuracy) {
	t.Helper()
	switch r := res.(type) {
	case api.DistinctResult:
		return map[string]float64{"ht": r.HT, "l": r.L}, r.Accuracy
	case api.DominanceResult:
		return map[string]float64{"ht": r.HT, "l": r.L}, nil
	case api.QuantileResult:
		return map[string]float64{"ht": r.HT}, nil
	case api.SumResult:
		return map[string]float64{"sum": r.Sum}, r.Accuracy
	}
	t.Fatalf("no columns known for a %T", res)
	return nil, nil
}

// TestConformance holds every served estimate to what the paper and the
// code's own docs claim for it. Each case draws its summaries under salts
// 1…conformanceSalts and answers through its queryKinds row's run — the
// code GET /v1/query serves — and over the draws:
//   - every served column is unbiased: |mean error| ≤ 4·sd/√N;
//   - an unbiasedStdErr accuracy has empirical sd within ±10 % of the mean
//     served stderr, and ci95 covers the truth in [93 %, 97 %] of draws;
//   - a boundStdErr accuracy has empirical sd ≤ the mean served stderr,
//     and ci95 covers in ≥ 93 % of draws;
//   - where the paper proves L dominates HT, MSE(L) ≤ MSE(HT).
//
// A row of queryKinds, or a summary kind a row answers over, without a
// case fails the test.
func TestConformance(t *testing.T) {
	cases := conformanceCases()
	for _, k := range queryKinds {
		kinds := k.kinds
		if k.alone != "" {
			kinds = append(slices.Clip(kinds), k.alone)
		}
		for _, kind := range kinds {
			if !slices.ContainsFunc(cases, func(c conformanceCase) bool { return c.row == k.name && c.kind == kind }) {
				t.Errorf("query %s over %s summaries has no conformance case", k.name, kind)
			}
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			row, err := lookupQuery(c.row)
			if err != nil {
				t.Fatal(err)
			}
			est := make(map[string][]float64, len(c.columns))
			var stderrSum float64
			covered := 0
			for salt := uint64(1); salt <= conformanceSalts; salt++ {
				call := queryCall{dataset: "conformance", sums: c.draw(core.NewSummarizer(salt)), params: c.params}
				for _, s := range call.sums {
					call.instances = append(call.instances, s.InstanceID())
					if s.Kind() != c.kind {
						t.Fatalf("case draws a %s summary, want %s", s.Kind(), c.kind)
					}
				}
				res, _, err := row.run(call)
				if err != nil {
					t.Fatalf("salt %d: %v", salt, err)
				}
				cols, acc := servedColumns(t, res)
				for _, col := range c.columns {
					est[col] = append(est[col], cols[col])
				}
				if (acc == nil) != (c.accuracy == noAccuracy) {
					t.Fatalf("salt %d: accuracy block %+v, want one iff the case has an accuracy form", salt, acc)
				}
				if acc == nil {
					continue
				}
				stderrSum += acc.StdErr
				if math.Abs(cols[c.columns[0]]-c.truth) <= acc.CI95 {
					covered++
				}
			}

			n := float64(conformanceSalts)
			mse := make(map[string]float64, len(c.columns))
			for _, col := range c.columns {
				mean, sd := meanSD(est[col])
				bias := mean - c.truth
				mse[col] = bias*bias + sd*sd
				t.Logf("%s: truth %.6g, mean %.6g, sd %.4g, bias z %.2f", col, c.truth, mean, sd, bias/(sd/math.Sqrt(n)))
				if math.Abs(bias) > 4*sd/math.Sqrt(n) {
					t.Errorf("%s is biased: mean %.6g, truth %.6g, |error| %.4g > 4·sd/√N = %.4g",
						col, mean, c.truth, math.Abs(bias), 4*sd/math.Sqrt(n))
				}
			}
			if c.dominance {
				t.Logf("MSE(HT)/MSE(L) = %.3f", mse["ht"]/mse["l"])
				if mse["l"] > mse["ht"] {
					t.Errorf("MSE(L) %.4g > MSE(HT) %.4g", mse["l"], mse["ht"])
				}
			}
			if c.accuracy == noAccuracy {
				return
			}
			_, sd := meanSD(est[c.columns[0]])
			stderr, coverage := stderrSum/n, float64(covered)/n
			t.Logf("%s accuracy: sd/stderr %.3f, ci95 coverage %.3f", c.columns[0], sd/stderr, coverage)
			switch c.accuracy {
			case unbiasedStdErr:
				if math.Abs(sd/stderr-1) > 0.10 {
					t.Errorf("empirical sd %.4g is not within ±10 %% of the mean served stderr %.4g", sd, stderr)
				}
				if coverage < 0.93 || coverage > 0.97 {
					t.Errorf("ci95 covers the truth in %.1f %% of draws, want [93 %%, 97 %%]", 100*coverage)
				}
			case boundStdErr:
				if sd > stderr {
					t.Errorf("empirical sd %.4g exceeds the mean served stderr bound %.4g", sd, stderr)
				}
				if coverage < 0.93 {
					t.Errorf("ci95 covers the truth in %.1f %% of draws, want ≥ 93 %%", 100*coverage)
				}
			}
		})
	}
}

// meanSD returns the mean and the sample standard deviation of xs.
func meanSD(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(sd / float64(len(xs)-1))
}
