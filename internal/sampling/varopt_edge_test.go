package sampling

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/randx"
)

// zeroRNG always returns 0.0 — the extreme corner of the drop draw: u=0
// selects the first item with positive drop probability.
type zeroRNG struct{}

func (zeroRNG) Float64() float64 { return 0.0 }

// voTotal sums the adjusted weights of the reservoir (the exact-total
// invariant: Σ max(w, tau) over retained items equals Σ pushed weights).
func voTotal(v *VarOpt) float64 {
	return v.Sample().SubsetSum(nil)
}

// TestVarOptK1: a capacity-1 reservoir holds exactly one item whose
// adjusted weight is the exact running total.
func TestVarOptK1(t *testing.T) {
	vo := NewVarOpt(1, randx.New(7))
	total := 0.0
	for i := 1; i <= 50; i++ {
		w := float64(i%7 + 1)
		vo.Add(dataset.Key(i), w)
		total += w
		if vo.Len() != 1 {
			t.Fatalf("k=1 reservoir holds %d items", vo.Len())
		}
		if got := voTotal(vo); math.Abs(got-total) > 1e-9*total {
			t.Fatalf("k=1 adjusted total %v, want %v", got, total)
		}
	}
}

// TestVarOptAllEqualWeights: with n equal weights w and capacity k, the
// threshold is exactly n·w/k and every retained item carries it.
func TestVarOptAllEqualWeights(t *testing.T) {
	const (
		k = 4
		n = 20
		w = 5.0
	)
	vo := NewVarOpt(k, randx.New(3))
	for i := 1; i <= n; i++ {
		vo.Add(dataset.Key(i), w)
	}
	if vo.Len() != k {
		t.Fatalf("reservoir size %d, want %d", vo.Len(), k)
	}
	wantTau := n * w / k
	if math.Abs(vo.Tau()-wantTau) > 1e-9*wantTau {
		t.Errorf("tau = %v, want %v", vo.Tau(), wantTau)
	}
	s := vo.Sample()
	for h, aw := range s.Adjusted {
		if math.Abs(aw-wantTau) > 1e-9*wantTau {
			t.Errorf("key %d adjusted %v, want %v", h, aw, wantTau)
		}
	}
}

// TestVarOptWeightAtTau: an arrival whose weight equals the current
// threshold exactly keeps the total invariant and a monotone threshold.
func TestVarOptWeightAtTau(t *testing.T) {
	vo := NewVarOpt(3, randx.New(11))
	total := 0.0
	for i := 1; i <= 10; i++ {
		vo.Add(dataset.Key(i), 2)
		total += 2
	}
	tau := vo.Tau()
	if tau <= 0 {
		t.Fatalf("threshold not engaged: tau = %v", tau)
	}
	vo.Add(dataset.Key(100), tau)
	total += tau
	if got := voTotal(vo); math.Abs(got-total) > 1e-9*total {
		t.Errorf("total after at-tau arrival %v, want %v", got, total)
	}
	if vo.Tau() < tau {
		t.Errorf("threshold decreased: %v -> %v", tau, vo.Tau())
	}
}

// TestVarOptZeroRNG: a degenerate rng that always draws 0.0 must still
// keep the reservoir bounded and the total exact.
func TestVarOptZeroRNG(t *testing.T) {
	vo := NewVarOpt(4, zeroRNG{})
	total := 0.0
	for i := 1; i <= 40; i++ {
		w := 1 + float64(i%5)
		vo.Add(dataset.Key(i), w)
		total += w
	}
	if vo.Len() != 4 {
		t.Fatalf("reservoir size %d, want 4", vo.Len())
	}
	if got := voTotal(vo); math.Abs(got-total) > 1e-9*total {
		t.Errorf("total %v, want %v", got, total)
	}
}
