package experiments

import (
	"math"
	"testing"

	"repro/internal/estimator"
)

// TestRequiredSampleSizes reproduces the Figure 6 headline: the L estimator
// needs up to 2× fewer samples, and for J > 0 its required p approaches a
// constant as n grows (constant sample size for fixed cv).
func TestRequiredSampleSizes(t *testing.T) {
	cv := 0.1
	for _, j := range []float64{0, 0.5, 0.9, 1} {
		for _, n := range []float64{1e3, 1e6, 1e9} {
			pht := RequiredPHT(n, j, cv)
			pl := RequiredPL(n, j, cv)
			if pl > pht*(1+1e-9) {
				t.Errorf("J=%v n=%v: L needs more samples than HT (%v > %v)", j, n, pl, pht)
			}
			// Verify the solved p actually achieves the target cv.
			bigN := 2 * n / (1 + j)
			e := estimator.DistinctEstimator{P1: pht, P2: pht}
			if gotCV := math.Sqrt(e.VarHT(bigN)) / bigN; pht < 1 && math.Abs(gotCV-cv) > 1e-6 {
				t.Errorf("J=%v n=%v: HT cv at solved p = %v", j, n, gotCV)
			}
			el := estimator.DistinctEstimator{P1: pl, P2: pl}
			if gotCV := math.Sqrt(el.VarL(bigN, j)) / bigN; pl < 1 && math.Abs(gotCV-cv) > 1e-6 {
				t.Errorf("J=%v n=%v: L cv at solved p = %v", j, n, gotCV)
			}
		}
	}
	// Large-n asymptotics (§8.1): s(L)/s(HT) → √(1−J)/2 for J < 1, since
	// the (1−J)/(4p²) variance term dominates once p < (1−J)/(2J).
	for _, j := range []float64{0, 0.5, 0.9} {
		want := math.Sqrt(1-j) / 2
		if r := RequiredPL(1e10, j, cv) / RequiredPHT(1e10, j, cv); math.Abs(r-want) > 0.05*want+0.01 {
			t.Errorf("J=%v ratio = %v, want ≈%v", j, r, want)
		}
	}
	// J = 1: Θ(1) samples suffice for a fixed cv — the required sample
	// size is the constant 1/(2cv²)+O(1) independent of n.
	a := RequiredPL(1e6, 1, cv) * 1e6
	b := RequiredPL(1e10, 1, cv) * 1e10
	if math.Abs(a-b) > 0.01*a {
		t.Errorf("J=1: sample size not constant (%v → %v)", a, b)
	}
	if want := 1 / (2 * cv * cv); math.Abs(b-want) > 0.05*want {
		t.Errorf("J=1: sample size %v, want ≈%v", b, want)
	}
}

// TestRequiredPMonotone: the solved probabilities lie in (0, 1] and never
// grow with the set size — larger sets need a smaller sampling rate for
// the same cv.
func TestRequiredPMonotone(t *testing.T) {
	const cv = 0.1
	for _, j := range []float64{0, 0.5, 1} {
		prevHT, prevL := 1.0, 1.0
		for _, n := range []float64{10, 1e3, 1e5, 1e7, 1e9} {
			pht, pl := RequiredPHT(n, j, cv), RequiredPL(n, j, cv)
			for name, p := range map[string]float64{"HT": pht, "L": pl} {
				if !(p > 0 && p <= 1) {
					t.Errorf("J=%v n=%v: %s p = %v outside (0, 1]", j, n, name, p)
				}
			}
			if pht > prevHT*(1+1e-9) || pl > prevL*(1+1e-9) {
				t.Errorf("J=%v n=%v: p grew with n (HT %v→%v, L %v→%v)", j, n, prevHT, pht, prevL, pl)
			}
			prevHT, prevL = pht, pl
		}
	}
}
