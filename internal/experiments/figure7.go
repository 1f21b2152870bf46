package experiments

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/estimator"
	"repro/internal/sampling"
	"repro/internal/simdata"
	"repro/internal/stats"
)

// Figure7Options sizes the §8.2 max-dominance experiment. The zero value
// reproduces the paper-scale workload (≈3.8·10⁴ keys; see substitution S1
// in the internal/simdata package doc); benchmarks use a scale factor to
// stay fast.
type Figure7Options struct {
	// ScaleDown divides the workload's key counts (0 or 1 = full scale).
	ScaleDown int
	// IntegrationN is the per-key Simpson interval count (default 64).
	IntegrationN int
	// Fractions overrides the sampled-fraction sweep.
	Fractions []float64
}

// Figure7 reproduces Figure 7: the normalized variance VAR[Σmax]/(Σmax)²
// of the HT and L max-dominance estimators over two independently sampled
// PPS instances with known seeds, as a function of the percentage of
// sampled keys. The data is the synthetic traffic workload calibrated to
// the paper's published statistics.
func Figure7(opt Figure7Options) *Table {
	cfg := simdata.PaperTraffic()
	if opt.ScaleDown > 1 {
		cfg = simdata.ScaledTraffic(opt.ScaleDown)
	}
	n := opt.IntegrationN
	if n <= 0 {
		n = 64
	}
	fractions := opt.Fractions
	if fractions == nil {
		fractions = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}
	}
	m := simdata.Generate(cfg)
	t := &Table{
		ID:     "figure7",
		Title:  "normalized variance of max-dominance estimates vs % sampled (synthetic IP traffic)",
		Header: []string{"% sampled", "var[HT]/mu^2", "var[L]/mu^2", "var[HT]/var[L]"},
		Notes: []string{
			"Workload: substitution S1 (synthetic heavy-tailed traffic calibrated to the §8.2 statistics).",
			"Paper reports the HT/L variance ratio between 2.45 and 2.7 on its proprietary data.",
		},
	}
	for _, f := range fractions {
		tau1 := sampling.TauForExpectedSize(m.Instances[0], f*float64(len(m.Instances[0])))
		tau2 := sampling.TauForExpectedSize(m.Instances[1], f*float64(len(m.Instances[1])))
		varHT, varL, total := DominanceVariance(m, tau1, tau2, n)
		ratio := 0.0
		if varL > 0 {
			ratio = varHT / varL
		}
		t.addRow(f*100, stats.NormalizedVar(varHT, total), stats.NormalizedVar(varL, total), ratio)
	}
	return t
}

// DominanceVariance computes the exact variance of the two max-dominance
// sum-aggregate estimators over independent PPS samples of a two-instance
// matrix with thresholds tau1, tau2, by per-key seed-space integration
// with n Simpson intervals (estimates of different keys are independent,
// so variances add). It returns (VAR[Σ max^HT], VAR[Σ max^L], Σ max).
func DominanceVariance(m *dataset.Matrix, tau1, tau2 float64, n int) (varHT, varL, total float64) {
	if m.R() != 2 {
		panic("experiments: max dominance needs 2 instances")
	}
	tau := []float64{tau1, tau2}
	for _, h := range m.Keys() {
		v := m.Vector(h)
		_, vh := estimator.PPSMoments2(v, tau, estimator.MaxHTPPS, n)
		_, vl := estimator.PPSMoments2(v, tau, estimator.MaxL2PPS, n)
		varHT += vh
		varL += vl
		total += math.Max(v[0], v[1])
	}
	return varHT, varL, total
}
