package stats

import (
	"math"
	"testing"
)

func TestWelfordMoments(t *testing.T) {
	var w Welford
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		w.Add(x)
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", w.Mean())
	}
	if math.Abs(w.variance()-4) > 1e-12 {
		t.Errorf("population var = %v, want 4", w.variance())
	}
	if math.Abs(w.CV()-2.0/5) > 1e-12 {
		t.Errorf("cv = %v, want 0.4", w.CV())
	}
}

func TestWelfordEdgeCases(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.variance() != 0 || w.CV() != 0 {
		t.Error("empty accumulator not zero")
	}
	w.Add(3)
	if w.variance() != 0 {
		t.Error("single observation variance not zero")
	}
	var z Welford
	z.Add(0)
	z.Add(0)
	if z.CV() != 0 {
		t.Errorf("CV of constant zero = %v", z.CV())
	}
	var m Welford
	m.Add(-1)
	m.Add(1)
	if !math.IsInf(m.CV(), 1) {
		t.Errorf("CV with zero mean and spread = %v, want +inf", m.CV())
	}
}

func TestWelfordNumericalStability(t *testing.T) {
	// Huge offset with tiny variance: the naive sum-of-squares approach
	// would catastrophically cancel.
	var w Welford
	const offset = 1e12
	for i := 0; i < 1000; i++ {
		w.Add(offset + float64(i%2))
	}
	if math.Abs(w.variance()-0.25) > 1e-6 {
		t.Errorf("variance = %v, want 0.25", w.variance())
	}
}

func TestBisect(t *testing.T) {
	root := Bisect(0, 10, 100, func(x float64) float64 { return x*x - 2 })
	if math.Abs(root-math.Sqrt2) > 1e-9 {
		t.Errorf("root = %v, want √2", root)
	}
	// Decreasing function.
	root = Bisect(0, 1, 100, func(x float64) float64 { return 0.25 - x })
	if math.Abs(root-0.25) > 1e-9 {
		t.Errorf("root = %v, want 0.25", root)
	}
	// No bracketing: returns the endpoint with smaller |f|.
	got := Bisect(0, 1, 50, func(x float64) float64 { return x + 1 })
	if got != 0 {
		t.Errorf("unbracketed root = %v, want 0", got)
	}
	// Exact root at an endpoint.
	if got := Bisect(2, 5, 50, func(x float64) float64 { return x - 2 }); got != 2 {
		t.Errorf("endpoint root = %v", got)
	}
}

func TestNormalizedVar(t *testing.T) {
	if got := NormalizedVar(4, 2); got != 1 {
		t.Errorf("NormalizedVar(4,2) = %v", got)
	}
	if got := NormalizedVar(4, 0); got != 0 {
		t.Errorf("NormalizedVar with zero total = %v", got)
	}
}
