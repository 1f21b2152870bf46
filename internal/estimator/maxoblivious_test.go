package estimator

import (
	"math"
	"testing"
	"testing/quick"
)

var probGrid = []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1}

var valueGrid2 = [][2]float64{
	{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 1}, {1, 2}, {5, 5},
	{10, 0}, {0, 10}, {3, 7}, {7, 3}, {100, 1}, {1e-3, 1e3},
}

func approxEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*math.Max(1, scale)
}

func TestMaxL2Unbiased(t *testing.T) {
	for _, p1 := range probGrid {
		for _, p2 := range probGrid {
			for _, v := range valueGrid2 {
				mean, _ := ObliviousMoments([]float64{p1, p2}, v[:], MaxL2)
				want := math.Max(v[0], v[1])
				if !approxEq(mean, want, 1e-12) {
					t.Errorf("MaxL2 biased: p=(%v,%v) v=%v mean=%v want=%v", p1, p2, v, mean, want)
				}
			}
		}
	}
}

func TestMaxU2Unbiased(t *testing.T) {
	for _, p1 := range probGrid {
		for _, p2 := range probGrid {
			for _, v := range valueGrid2 {
				mean, _ := ObliviousMoments([]float64{p1, p2}, v[:], MaxU2)
				want := math.Max(v[0], v[1])
				if !approxEq(mean, want, 1e-12) {
					t.Errorf("MaxU2 biased: p=(%v,%v) v=%v mean=%v want=%v", p1, p2, v, mean, want)
				}
			}
		}
	}
}

func TestMaxUAsym2Unbiased(t *testing.T) {
	for _, p1 := range probGrid {
		for _, p2 := range probGrid {
			for _, v := range valueGrid2 {
				mean, _ := ObliviousMoments([]float64{p1, p2}, v[:], MaxUAsym2)
				want := math.Max(v[0], v[1])
				if !approxEq(mean, want, 1e-12) {
					t.Errorf("MaxUAsym2 biased: p=(%v,%v) v=%v mean=%v want=%v", p1, p2, v, mean, want)
				}
			}
		}
	}
}

// TestMaxL2FigureOneTable checks the explicit outcome table of Figure 1
// (p1 = p2 = 1/2).
func TestMaxL2FigureOneTable(t *testing.T) {
	p := []float64{0.5, 0.5}
	mk := func(s1, s2 bool, v1, v2 float64) ObliviousOutcome {
		return ObliviousOutcome{P: p, Sampled: []bool{s1, s2}, Values: []float64{v1, v2}}
	}
	v1, v2 := 9.0, 4.0
	cases := []struct {
		name string
		o    ObliviousOutcome
		want float64
	}{
		{"empty", mk(false, false, 0, 0), 0},
		{"only1", mk(true, false, v1, 0), 4 * v1 / 3},
		{"only2", mk(false, true, 0, v2), 4 * v2 / 3},
		{"both", mk(true, true, v1, v2), (8*v1 - 4*v2) / 3},
	}
	for _, c := range cases {
		if got := MaxL2(c.o); !approxEq(got, c.want, 1e-12) {
			t.Errorf("MaxL2 %s = %v, want %v", c.name, got, c.want)
		}
	}
	// max^(U) table of Figure 1.
	ucases := []struct {
		name string
		o    ObliviousOutcome
		want float64
	}{
		{"empty", mk(false, false, 0, 0), 0},
		{"only1", mk(true, false, v1, 0), 2 * v1},
		{"only2", mk(false, true, 0, v2), 2 * v2},
		{"both", mk(true, true, v1, v2), 2*v1 - 2*v2},
	}
	for _, c := range ucases {
		if got := MaxU2(c.o); !approxEq(got, c.want, 1e-12) {
			t.Errorf("MaxU2 %s = %v, want %v", c.name, got, c.want)
		}
	}
	// max^(HT) table of Figure 1.
	if got := MaxHTOblivious(mk(true, true, v1, v2)); !approxEq(got, 4*v1, 1e-12) {
		t.Errorf("MaxHT both = %v, want %v", got, 4*v1)
	}
	if got := MaxHTOblivious(mk(true, false, v1, 0)); got != 0 {
		t.Errorf("MaxHT only1 = %v, want 0", got)
	}
}

func TestVarianceClosedFormsHalf(t *testing.T) {
	p := []float64{0.5, 0.5}
	for _, v := range valueGrid2 {
		_, varL := ObliviousMoments(p, v[:], MaxL2)
		if want := VarMaxL2Half(v[0], v[1]); !approxEq(varL, want, 1e-9) {
			t.Errorf("VarMaxL2Half(%v) = %v, enumeration %v", v, want, varL)
		}
		_, varU := ObliviousMoments(p, v[:], MaxU2)
		if want := VarMaxU2Half(v[0], v[1]); !approxEq(varU, want, 1e-9) {
			t.Errorf("VarMaxU2Half(%v) = %v, enumeration %v", v, want, varU)
		}
		_, varHT := ObliviousMoments(p, v[:], MaxHTOblivious)
		if want := VarMaxHTOblivious2(0.5, 0.5, v[0], v[1]); !approxEq(varHT, want, 1e-9) {
			t.Errorf("VarMaxHTOblivious2(%v) = %v, enumeration %v", v, want, varHT)
		}
	}
}

// TestDominanceOverHT verifies that max^(L), max^(U) and max^(Uas) all
// dominate max^(HT) (Lemma 4.1 and §4.2) on a probability/value grid.
func TestDominanceOverHT(t *testing.T) {
	ests := map[string]func(ObliviousOutcome) float64{
		"L":   MaxL2,
		"U":   MaxU2,
		"Uas": MaxUAsym2,
	}
	for _, p1 := range probGrid {
		for _, p2 := range probGrid {
			p := []float64{p1, p2}
			for _, v := range valueGrid2 {
				_, varHT := ObliviousMoments(p, v[:], MaxHTOblivious)
				for name, est := range ests {
					_, varE := ObliviousMoments(p, v[:], est)
					if varE > varHT+1e-9*math.Max(1, varHT) {
						t.Errorf("max^(%s) does not dominate HT: p=%v v=%v var=%v varHT=%v",
							name, p, v, varE, varHT)
					}
				}
			}
		}
	}
}

// TestParetoIncomparable confirms Figure 1's message: L wins on similar
// values, U wins on disjoint support, so neither dominates the other.
func TestParetoIncomparable(t *testing.T) {
	p := []float64{0.5, 0.5}
	_, lEqual := ObliviousMoments(p, []float64{1, 1}, MaxL2)
	_, uEqual := ObliviousMoments(p, []float64{1, 1}, MaxU2)
	if !(lEqual < uEqual) {
		t.Errorf("expected VAR[L]=%v < VAR[U]=%v on (1,1)", lEqual, uEqual)
	}
	_, lZero := ObliviousMoments(p, []float64{1, 0}, MaxL2)
	_, uZero := ObliviousMoments(p, []float64{1, 0}, MaxU2)
	if !(uZero < lZero) {
		t.Errorf("expected VAR[U]=%v < VAR[L]=%v on (1,0)", uZero, lZero)
	}
	// Figure 1 constants: VAR[L] = (1/3)max² on v1=v2, (11/9)max² on min=0;
	// VAR[U] = (3/4)max² in both corners.
	if !approxEq(lEqual, 1.0/3, 1e-12) {
		t.Errorf("VAR[L|(1,1)] = %v, want 1/3", lEqual)
	}
	if !approxEq(lZero, 11.0/9, 1e-12) {
		t.Errorf("VAR[L|(1,0)] = %v, want 11/9", lZero)
	}
	// See the erratum note on VarMaxU2Half: the outcome table yields
	// variance max² = 1 in both corners at p = 1/2 (not the 3/4 printed in
	// Figure 1's variance formula).
	if !approxEq(uEqual, 1, 1e-12) || !approxEq(uZero, 1, 1e-12) {
		t.Errorf("VAR[U] = %v, %v, want 1, 1", uEqual, uZero)
	}
}

// TestMaxL2Monotone verifies monotonicity: sampling more entries can only
// increase the estimate for a fixed data vector (Lemma 4.1).
func TestMaxL2Monotone(t *testing.T) {
	for _, p1 := range probGrid {
		for _, p2 := range probGrid {
			p := []float64{p1, p2}
			for _, v := range valueGrid2 {
				both := MaxL2(ObliviousOutcome{P: p, Sampled: []bool{true, true}, Values: v[:]})
				one := MaxL2(ObliviousOutcome{P: p, Sampled: []bool{true, false}, Values: []float64{v[0], 0}})
				two := MaxL2(ObliviousOutcome{P: p, Sampled: []bool{false, true}, Values: []float64{0, v[1]}})
				if both < one-1e-12 || both < two-1e-12 {
					t.Errorf("MaxL2 not monotone: p=%v v=%v both=%v one=%v two=%v", p, v, both, one, two)
				}
				if one < 0 || two < 0 || both < 0 {
					t.Errorf("MaxL2 negative: p=%v v=%v", p, v)
				}
			}
		}
	}
}

// TestMaxEstimatorsNonnegativeQuick drives nonnegativity with random
// outcomes via testing/quick.
func TestMaxEstimatorsNonnegativeQuick(t *testing.T) {
	f := func(v1, v2, q1, q2, u1, u2 float64) bool {
		v1, v2 = 1000*frac(v1), 1000*frac(v2)
		p1 := 0.05 + 0.95*frac(q1)
		p2 := 0.05 + 0.95*frac(q2)
		o := SampleOblivious([]float64{v1, v2}, []float64{frac(u1), frac(u2)}, []float64{p1, p2})
		return MaxL2(o) >= -1e-12 && MaxU2(o) >= -1e-12 && MaxUAsym2(o) >= -1e-12 && MaxHTOblivious(o) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func frac(x float64) float64 {
	x = math.Abs(x)
	x -= math.Floor(x)
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.5
	}
	return x
}

// TestRangeAndMinHTOptimal verifies the §4 claim that for r=2 the HT
// estimators of RG and min are unbiased (optimality is analytic; here we
// lock in unbiasedness and the all-sampled support).
func TestRangeAndMinHTOptimal(t *testing.T) {
	for _, p1 := range probGrid {
		for _, p2 := range probGrid {
			p := []float64{p1, p2}
			for _, v := range valueGrid2 {
				mean, _ := ObliviousMoments(p, v[:], RangeHTOblivious)
				if want := math.Abs(v[0] - v[1]); !approxEq(mean, want, 1e-12) {
					t.Errorf("RangeHT biased: p=%v v=%v mean=%v want=%v", p, v, mean, want)
				}
				mean, _ = ObliviousMoments(p, v[:], MinHTOblivious)
				if want := math.Min(v[0], v[1]); !approxEq(mean, want, 1e-12) {
					t.Errorf("MinHT biased: p=%v v=%v mean=%v want=%v", p, v, mean, want)
				}
			}
		}
	}
}

// MinHTOblivious is HTOblivious specialized to min. For any r it is Pareto
// optimal: any nonnegative estimator must be 0 on outcomes consistent with a
// zero minimum, which includes every outcome with an unsampled entry.
func MinHTOblivious(o ObliviousOutcome) float64 {
	return HTOblivious(o, minOf)
}

// RangeHTOblivious is HTOblivious specialized to RG = max − min. For r = 2
// it is Pareto optimal (§4); for r > 2 it is not.
func RangeHTOblivious(o ObliviousOutcome) float64 {
	return HTOblivious(o, func(v []float64) float64 { return maxOf(v) - minOf(v) })
}

// VarMaxU2Half is the variance of max^(U) at p1 = p2 = 1/2:
// max² + 2·min² − 2·max·min, obtained by exact enumeration of the
// estimator's own outcome table.
//
// Erratum: Figure 1 of the paper prints (3/4)·max² + 2·min² − 2·max·min,
// which is inconsistent with the outcome table printed directly above it
// (and with the general max^(U) construction and the §4.3 asymptotics,
// which give VAR ≈ 1/(4p²) on (1,0) — equal to max² at p = 1/2). We follow
// the outcome table.
func VarMaxU2Half(v1, v2 float64) float64 {
	mx, mn := math.Max(v1, v2), math.Min(v1, v2)
	return mx*mx + 2*mn*mn - 2*mx*mn
}

func minOf(v []float64) float64 {
	m := math.Inf(1)
	for _, x := range v {
		if x < m {
			m = x
		}
	}
	if len(v) == 0 {
		return 0
	}
	return m
}
