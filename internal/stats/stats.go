// Package stats provides the small statistical toolkit shared by tests,
// experiments and benchmarks: numerically stable moment accumulation
// (Welford), coefficient of variation, variance normalization and
// bisection.
package stats

import "math"

// Welford accumulates mean and variance in one pass with the classic
// numerically stable update. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean returns the sample mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// variance returns the population variance (dividing by n).
func (w *Welford) variance() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// CV returns the coefficient of variation sqrt(Var)/|Mean| (infinite for a
// zero mean with positive variance).
func (w *Welford) CV() float64 {
	if w.mean == 0 {
		if w.m2 == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Sqrt(w.variance()) / math.Abs(w.mean)
}

// NormalizedVar returns VAR/total², the per-figure normalization the paper
// uses for sum aggregates (Figure 7).
func NormalizedVar(variance, total float64) float64 {
	if total == 0 {
		return 0
	}
	return variance / (total * total)
}

// Bisect finds x in [lo, hi] with f(x) ≈ 0 for a continuous monotone f,
// using iters bisection steps. It assumes f(lo) and f(hi) bracket a root;
// if they do not, it returns the endpoint with the smaller |f|.
func Bisect(lo, hi float64, iters int, f func(float64) float64) float64 {
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo
	}
	if fhi == 0 {
		return hi
	}
	if (flo > 0) == (fhi > 0) {
		if math.Abs(flo) < math.Abs(fhi) {
			return lo
		}
		return hi
	}
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		fm := f(mid)
		if fm == 0 {
			return mid
		}
		if (fm > 0) == (flo > 0) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
