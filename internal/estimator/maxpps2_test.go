package estimator

import (
	"math"
	"testing"

	"repro/internal/randx"
)

// The r = 2 PPS estimators as they stood before the scalar pair kernel and
// the equal-entries shortcut, bodies verbatim: the slice-based max^(HT),
// the determining vector, and the full four-regime closed form. MaxPPS2 and
// MaxL2PPSDetermining must return their bits on every input — the
// references share no code with them, so a wrong shortcut cannot drag its
// own oracle along.

func refMaxSampled(o PPSOutcome) float64 {
	m := 0.0
	for i, s := range o.Sampled {
		if s && o.Values[i] > m {
			m = o.Values[i]
		}
	}
	return m
}

func refMaxHTPPS(o PPSOutcome) float64 {
	m := refMaxSampled(o)
	if m <= 0 {
		return 0
	}
	p := 1.0
	for i, s := range o.Sampled {
		if !s && o.U[i]*o.Tau[i] > m {
			return 0
		}
	}
	for i := range o.Tau {
		p *= math.Min(1, m/o.Tau[i])
	}
	if p <= 0 {
		return 0
	}
	return m / p
}

func refDeterminingVector(o PPSOutcome) []float64 {
	phi := make([]float64, len(o.Tau))
	m := refMaxSampled(o)
	n := 0
	for _, s := range o.Sampled {
		if s {
			n++
		}
	}
	if n == 0 {
		return phi
	}
	for i := range phi {
		if o.Sampled[i] {
			phi[i] = o.Values[i]
		} else {
			b := o.U[i] * o.Tau[i]
			if b > m {
				b = m
			}
			phi[i] = b
		}
	}
	return phi
}

func refMaxL2PPSDetermining(v1, v2, tau1, tau2 float64) float64 {
	a, b, ta, tb := v1, v2, tau1, tau2
	if b > a {
		a, b, ta, tb = b, a, tb, ta
	}
	if a <= 0 {
		return 0
	}
	if b <= 0 {
		b = math.SmallestNonzeroFloat64
	}
	switch {
	case b >= tb:
		return b + (a-b)/math.Min(1, a/ta)
	case a >= ta:
		return a
	case a <= tb:
		T := ta + tb
		est := ta * tb / (T - a)
		est += ta * tb * (ta - a) / (a * T) * (math.Log((T-b)*a) - math.Log(b*(T-a)))
		est += (a - b) * ta * tb * (ta - a) / (a * (T - b) * (T - a))
		return est
	default:
		T := ta + tb
		est := ta + tb - ta*tb/a
		est += ta * tb * (ta - a) / (a * T) * (math.Log((T-b)*tb) - math.Log(b*ta))
		est += tb * (ta - a) * (tb - b) / ((T - b) * a)
		return est
	}
}

func refMaxL2PPS(o PPSOutcome) float64 {
	phi := refDeterminingVector(o)
	return refMaxL2PPSDetermining(phi[0], phi[1], o.Tau[0], o.Tau[1])
}

// sameBits is Float64bits equality with every NaN equal to every other.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkPair holds one outcome's pair-kernel, wrapper and general-r answers
// to the references.
func checkPair(t *testing.T, s0, s1 bool, v0, v1, u0, u1, tau0, tau1 float64) {
	t.Helper()
	o := PPSOutcome{Tau: []float64{tau0, tau1}, U: []float64{u0, u1}, Sampled: []bool{s0, s1}, Values: []float64{v0, v1}}
	wantHT, wantL := refMaxHTPPS(o), refMaxL2PPS(o)
	ht, l := MaxPPS2(s0, s1, v0, v1, u0*tau0, u1*tau1, tau0, tau1)
	if !sameBits(ht, wantHT) || !sameBits(l, wantL) {
		t.Errorf("MaxPPS2(%v,%v v=%v,%v u=%v,%v tau=%v,%v) = (%v, %v), reference (%v, %v)",
			s0, s1, v0, v1, u0, u1, tau0, tau1, ht, l, wantHT, wantL)
	}
	if got := MaxHTPPS(o); !sameBits(got, ht) {
		t.Errorf("MaxHTPPS = %v, pair kernel %v (v=%v,%v u=%v,%v tau=%v,%v)", got, ht, v0, v1, u0, u1, tau0, tau1)
	}
	if got := MaxL2PPS(o); !sameBits(got, l) {
		t.Errorf("MaxL2PPS = %v, pair kernel %v (v=%v,%v u=%v,%v tau=%v,%v)", got, l, v0, v1, u0, u1, tau0, tau1)
	}
}

// pairGridTaus and pairGridValues place entries on, just beside and far
// from every switch boundary of the closed form, at ordinary, denormal and
// near-overflow scales. The 1e-160 scale is where a·(T−a) is still positive
// but a·(T−a)² is not.
var (
	pairGridTaus   = []float64{5e-324, 1e-300, 2e-160, 3e-160, 0.5, 4, 4.000000000000001, 10, 1e300, math.MaxFloat64}
	pairGridValues = []float64{0, 5e-324, 1e-310, 1e-300, 1e-160, 0.25, 0.5, 1, 3.9999999999999996, 4, 4.000000000000001, 7, 10, 12, 1e300}
	pairGridSeeds  = []float64{0, 5e-324, 1e-17, 0.0625, 0.25, 0.5, 0.9999999999999999}
)

// TestMaxPPS2MatchesSliceForm walks the regime grid: both entries sampled,
// one, none; the unsampled entry's seed bound above, at and below the
// maximum; every boundary b = τ_b, a = τ_a, a = τ_b, a = b; seed 0;
// denormal values; thresholds at 1e±300.
func TestMaxPPS2MatchesSliceForm(t *testing.T) {
	for _, tau0 := range pairGridTaus {
		for _, tau1 := range pairGridTaus {
			for _, v0 := range pairGridValues {
				// Both sampled: the seeds are not read.
				for _, v1 := range pairGridValues {
					checkPair(t, true, true, v0, v1, 0.5, 0.5, tau0, tau1)
				}
				for _, u := range pairGridSeeds {
					checkPair(t, true, false, v0, 0, 0.5, u, tau0, tau1)
					checkPair(t, false, true, 0, v0, u, 0.5, tau0, tau1)
				}
				// A seed whose bound is exactly the sampled value, and its
				// neighbours: the min{m, u·τ} kink.
				if u := v0 / tau1; u < 1 {
					for _, u := range []float64{math.Nextafter(u, 0), u, math.Nextafter(u, 1)} {
						checkPair(t, true, false, v0, 0, 0.5, u, tau0, tau1)
					}
				}
			}
			for _, u := range pairGridSeeds {
				checkPair(t, false, false, 0, 0, u, u, tau0, tau1)
			}
		}
	}
}

// TestMaxL2PPSDeterminingMatchesFullExpression compares the closed form
// with the shortcut-free reference over the grid of determining vectors,
// and checks the grid reaches both sides of the equal-entries guard: inputs
// where the shortcut answers, and inputs (underflowing or overflowing
// products) where the full expression is NaN and the guard must decline.
func TestMaxL2PPSDeterminingMatchesFullExpression(t *testing.T) {
	shortcut, declined := 0, 0
	for _, tau0 := range pairGridTaus {
		for _, tau1 := range pairGridTaus {
			for _, v0 := range pairGridValues {
				for _, v1 := range pairGridValues {
					got, want := MaxL2PPSDetermining(v0, v1, tau0, tau1), refMaxL2PPSDetermining(v0, v1, tau0, tau1)
					if !sameBits(got, want) {
						t.Errorf("MaxL2PPSDetermining(%v, %v, %v, %v) = %v, full expression %v", v0, v1, tau0, tau1, got, want)
					}
					// The a ≤ τ_b regime with equal entries.
					if v0 == v1 && v0 > 0 && v0 < tau0 && v0 < tau1 {
						if math.IsNaN(want) {
							declined++
						} else {
							shortcut++
						}
					}
				}
			}
		}
	}
	if shortcut == 0 || declined == 0 {
		t.Errorf("grid does not straddle the equal-entries guard: %d finite, %d NaN", shortcut, declined)
	}
}

// TestMaxPPSIgnoresSampledSeeds: neither estimate reads the seed of a
// sampled entry — the licence for the merge loop to compute a seed only for
// the instance a key is absent from.
func TestMaxPPSIgnoresSampledSeeds(t *testing.T) {
	rng := randx.New(2011)
	for i := 0; i < 20000; i++ {
		v := []float64{rng.Float64() * 12, rng.Float64() * 12}
		tau := []float64{0.5 + rng.Float64()*12, 0.5 + rng.Float64()*12}
		u := []float64{rng.Float64(), rng.Float64()}
		o := SamplePPS(v, u, tau)
		ht, l := refMaxHTPPS(o), refMaxL2PPS(o)
		for j, s := range o.Sampled {
			if !s {
				continue
			}
			for _, other := range []float64{0, rng.Float64(), 0.9999999999999999, math.NaN()} {
				moved := PPSOutcome{Tau: tau, U: append([]float64(nil), u...), Sampled: o.Sampled, Values: o.Values}
				moved.U[j] = other
				for name, pair := range map[string][2]float64{
					"reference HT": {refMaxHTPPS(moved), ht}, "reference L": {refMaxL2PPS(moved), l},
					"MaxHTPPS": {MaxHTPPS(moved), ht}, "MaxL2PPS": {MaxL2PPS(moved), l},
				} {
					if !sameBits(pair[0], pair[1]) {
						t.Fatalf("%s moved from %v to %v when the seed of sampled entry %d went %v -> %v (v=%v tau=%v)",
							name, pair[1], pair[0], j, u[j], other, v, tau)
					}
				}
			}
		}
	}
}

// FuzzMaxPPS2 holds the pair kernel and the closed form to the references
// on arbitrary bits: any float, sampled or not.
func FuzzMaxPPS2(f *testing.F) {
	f.Add(true, false, 4.0, 0.0, 0.5, 0.9, 10.0, 12.0)        // equal entries, shortcut
	f.Add(true, false, 4.0, 0.0, 0.5, 0.1, 10.0, 12.0)        // unequal entries, logarithms
	f.Add(true, true, 12.0, 8.0, 0.5, 0.5, 10.0, 5.0)         // both above thresholds
	f.Add(false, true, 0.0, 8.0, 0.3, 0.5, 10.0, 5.0)         // middle regime
	f.Add(true, false, 1e-310, 0.0, 0.5, 0.9, 1e-300, 1e-300) // products underflow
	f.Add(true, false, 1e299, 0.0, 0.5, 0.9, 1e300, 1e300)    // products overflow
	f.Add(false, false, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0)
	f.Fuzz(func(t *testing.T, s0, s1 bool, v0, v1, u0, u1, tau0, tau1 float64) {
		checkPair(t, s0, s1, v0, v1, u0, u1, tau0, tau1)
		if got, want := MaxL2PPSDetermining(v0, v1, tau0, tau1), refMaxL2PPSDetermining(v0, v1, tau0, tau1); !sameBits(got, want) {
			t.Errorf("MaxL2PPSDetermining(%v, %v, %v, %v) = %v, full expression %v", v0, v1, tau0, tau1, got, want)
		}
	})
}
