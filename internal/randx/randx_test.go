package randx

import (
	"math"
	"testing"
)

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 100000; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of range: %v", u)
		}
		up := r.float64Pos()
		if up <= 0 || up > 1 {
			t.Fatalf("Float64Pos out of range: %v", up)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestParetoTail(t *testing.T) {
	r := New(11)
	const n = 200000
	over := 0
	for i := 0; i < n; i++ {
		if r.Pareto(1, 2) > 10 {
			over++
		}
	}
	// PR[X > 10] = (1/10)^2 = 0.01.
	if frac := float64(over) / n; math.Abs(frac-0.01) > 0.002 {
		t.Errorf("Pareto tail fraction %v, want ≈0.01", frac)
	}
	if r.Pareto(3, 1.5) < 3 {
		t.Error("Pareto below scale")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(13)
	for i := 0; i < 10000; i++ {
		if x := r.Intn(7); x < 0 || x >= 7 {
			t.Fatalf("Intn(7) = %d", x)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, x := range p {
		if x < 0 || x >= 100 || seen[x] {
			t.Fatalf("invalid permutation at %d", x)
		}
		seen[x] = true
	}
}
