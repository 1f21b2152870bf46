package estimator

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

func TestLthHTUnbiased(t *testing.T) {
	p := []float64{0.3, 0.5, 0.7}
	v := []float64{4, 9, 1}
	sorted := []float64{9, 4, 1}
	for l := 1; l <= 3; l++ {
		mean, _ := ObliviousMoments(p, v, func(o ObliviousOutcome) float64 {
			return LthHTOblivious(o, l)
		})
		if !approxEq(mean, sorted[l-1], 1e-12) {
			t.Errorf("Lth(%d) mean %v, want %v", l, mean, sorted[l-1])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range quantile did not panic")
		}
	}()
	LthHTOblivious(ObliviousOutcome{P: p, Sampled: make([]bool, 3), Values: make([]float64, 3)}, 4)
}

func TestRGdHTUnbiased(t *testing.T) {
	p := []float64{0.4, 0.6}
	v := []float64{7, 3}
	for _, d := range []float64{1, 2, 0.5} {
		mean, _ := ObliviousMoments(p, v, func(o ObliviousOutcome) float64 {
			return RGdHTOblivious(o, d)
		})
		want := math.Pow(4, d)
		if !approxEq(mean, want, 1e-12) {
			t.Errorf("RG^%v mean %v, want %v", d, mean, want)
		}
	}
}

// TestLthHTSuboptimalForMax: for ℓ=1 (the max), the HT quantile estimator
// coincides with max^(HT), which max^(L) strictly dominates on data with
// distinct values — the motivation of §4.
func TestLthHTSuboptimalForMax(t *testing.T) {
	p := []float64{0.5, 0.5}
	v := []float64{10, 4}
	_, varHT := ObliviousMoments(p, v, func(o ObliviousOutcome) float64 {
		return LthHTOblivious(o, 1)
	})
	_, varL := ObliviousMoments(p, v, MaxL2)
	if !(varL < varHT) {
		t.Errorf("expected strict dominance: VAR[L]=%v, VAR[HT]=%v", varL, varHT)
	}
}

// LthHTOblivious estimates the ℓ-th largest entry (1-based) with inverse
// probability weighting over fully sampled outcomes.
func LthHTOblivious(o ObliviousOutcome, l int) float64 {
	if l < 1 || l > o.r() {
		panic(fmt.Sprintf("estimator: quantile index %d out of range [1,%d]", l, o.r()))
	}
	return HTOblivious(o, func(v []float64) float64 {
		s := append([]float64(nil), v...)
		sort.Sort(sort.Reverse(sort.Float64Slice(s)))
		return s[l-1]
	})
}

// RGdHTOblivious estimates RG(v)^d = (max−min)^d with inverse probability
// weighting over fully sampled outcomes.
func RGdHTOblivious(o ObliviousOutcome, d float64) float64 {
	return HTOblivious(o, func(v []float64) float64 {
		rg := maxOf(v) - minOf(v)
		switch d {
		case 1:
			return rg
		case 2:
			return rg * rg
		}
		return math.Pow(rg, d)
	})
}
