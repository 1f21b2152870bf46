package experiments

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sampling"
	"repro/internal/simdata"
)

// TestDominanceVarianceMatchesMC: the per-key integration agrees with
// Monte Carlo over salts of the estimates core's merge kernel returns.
func TestDominanceVarianceMatchesMC(t *testing.T) {
	m := simdata.Generate(simdata.TrafficConfig{
		SharedKeys: 80, Only1: 30, Only2: 30,
		Alpha: 1.5, MeanValue: 10, Jitter: 0.5, Seed: 11,
	})
	tau1 := sampling.TauForExpectedSize(m.Instances[0], 25)
	tau2 := sampling.TauForExpectedSize(m.Instances[1], 25)
	varHT, varL, total := DominanceVariance(m, tau1, tau2, 128)
	if total != m.SumAggregate(dataset.Max, nil) {
		t.Fatalf("total mismatch")
	}
	const trials = 5000
	var whtM, whtM2, wlM, wlM2 float64
	for i := 0; i < trials; i++ {
		s := core.NewSummarizer(999 + uint64(i))
		res, err := core.MaxDominanceReaders(s.SummarizePPS(0, m.Instances[0], tau1), s.SummarizePPS(1, m.Instances[1], tau2), nil)
		if err != nil {
			t.Fatal(err)
		}
		whtM += res.HT
		whtM2 += res.HT * res.HT
		wlM += res.L
		wlM2 += res.L * res.L
	}
	whtM /= trials
	wlM /= trials
	mcVarHT := whtM2/trials - whtM*whtM
	mcVarL := wlM2/trials - wlM*wlM
	if math.Abs(mcVarHT-varHT)/varHT > 0.1 {
		t.Errorf("HT variance: MC %v, integration %v", mcVarHT, varHT)
	}
	if math.Abs(mcVarL-varL)/varL > 0.1 {
		t.Errorf("L variance: MC %v, integration %v", mcVarL, varL)
	}
	if varL > varHT {
		t.Errorf("L variance %v exceeds HT %v", varL, varHT)
	}
}

// TestDominanceVarianceRejectsNonPair: the pair integration refuses a
// matrix that does not hold exactly two instances.
func TestDominanceVarianceRejectsNonPair(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for r≠2")
		}
	}()
	DominanceVariance(dataset.FigureFive(), 1, 1, 16)
}

// TestDominanceVarianceVanishesAtFullSampling: when every key is sampled
// with certainty, both estimators are exact and their variances are 0, up
// to the O(ε·v²) the integration leaves in the ε = 1e-9 slivers it skips
// at each kink.
func TestDominanceVarianceVanishesAtFullSampling(t *testing.T) {
	m := dataset.NewMatrix(dataset.FigureFive().Instances[0], dataset.FigureFive().Instances[1])
	varHT, varL, total := DominanceVariance(m, 1e-9, 1e-9, 16)
	if total != m.SumAggregate(dataset.Max, nil) {
		t.Errorf("total %v, want %v", total, m.SumAggregate(dataset.Max, nil))
	}
	if tol := 1e-8 * total * total; math.Abs(varHT) > tol || math.Abs(varL) > tol {
		t.Errorf("variances (%v, %v), want 0", varHT, varL)
	}
}
