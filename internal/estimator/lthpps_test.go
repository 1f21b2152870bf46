package estimator

import (
	"math"
	"testing"

	"repro/internal/randx"
)

// TestLthHTPPSUnbiased integrates the PPS quantile estimator over the
// seed space: for r = 2 the ℓ = 1 case must be unbiased for the max and
// the ℓ = 2 case for the min, across every Figure 3 regime.
func TestLthHTPPSUnbiased(t *testing.T) {
	n := 4096
	for _, c := range ppsCases {
		v := []float64{c.v1, c.v2}
		tau := []float64{c.t1, c.t2}
		mean, _ := PPSMoments2(v, tau, func(o PPSOutcome) float64 { return LthHTPPS(o, 1) }, n)
		if !approxEq(mean, math.Max(c.v1, c.v2), 1e-6) {
			t.Errorf("%s: LthHTPPS(·,1) mean = %v, want %v", c.name, mean, math.Max(c.v1, c.v2))
		}
		mean, _ = PPSMoments2(v, tau, func(o PPSOutcome) float64 { return LthHTPPS(o, 2) }, n)
		if !approxEq(mean, math.Min(c.v1, c.v2), 1e-6) {
			t.Errorf("%s: LthHTPPS(·,2) mean = %v, want %v", c.name, mean, math.Min(c.v1, c.v2))
		}
	}
}

// TestLthHTPPSMatchesMaxHT: for ℓ = 1 the quantile estimator must coincide
// with MaxHTPPS on every outcome — it generalizes exactly that
// construction.
func TestLthHTPPSMatchesMaxHT(t *testing.T) {
	rng := randx.New(42)
	for trial := 0; trial < 2000; trial++ {
		r := 2 + rng.Intn(3)
		o := PPSOutcome{
			Tau:     make([]float64, r),
			U:       make([]float64, r),
			Sampled: make([]bool, r),
			Values:  make([]float64, r),
		}
		for i := 0; i < r; i++ {
			o.Tau[i] = 1 + 20*rng.Float64()
			v := math.Floor(10 * rng.Float64())
			u := rng.Float64()
			// Sample according to the PPS rule so outcomes are consistent.
			if v >= u*o.Tau[i] {
				o.Sampled[i], o.Values[i] = true, v
			}
			o.U[i] = u
		}
		got := LthHTPPS(o, 1)
		want := MaxHTPPS(o)
		if !approxEq(got, want, 1e-12) {
			t.Fatalf("trial %d: LthHTPPS(·,1) = %v, MaxHTPPS = %v (outcome %+v)", trial, got, want, o)
		}
	}
}

// TestLthHTPPSUnbiasedMonteCarloR3 checks the r = 3 median by Monte Carlo:
// the deterministic integrator only covers r = 2, and the interior
// quantile is exactly the case the all-pairs machinery cannot reach.
func TestLthHTPPSUnbiasedMonteCarloR3(t *testing.T) {
	rng := randx.New(99)
	v := []float64{9, 4, 2}
	tau := []float64{12, 8, 10}
	const n = 500000
	sum := 0.0
	for trial := 0; trial < n; trial++ {
		o := PPSOutcome{
			Tau:     tau,
			U:       make([]float64, 3),
			Sampled: make([]bool, 3),
			Values:  make([]float64, 3),
		}
		for i := range v {
			o.U[i] = rng.Float64()
			if v[i] >= o.U[i]*tau[i] {
				o.Sampled[i], o.Values[i] = true, v[i]
			}
		}
		sum += LthHTPPS(o, 2)
	}
	mean := sum / n
	if math.Abs(mean-4) > 0.1 {
		t.Errorf("Monte Carlo mean of the r=3 median = %v, want 4", mean)
	}
}
