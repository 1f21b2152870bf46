package estimator

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/randx"
)

// TestMaxLUniformPrefixSumsMatchPaper locks the parametric prefix sums the
// paper derives for r = 2 and r = 3 (§4.1).
func TestMaxLUniformPrefixSumsMatchPaper(t *testing.T) {
	for _, p := range []float64{0.1, 0.3, 0.5, 0.8} {
		e2, err := NewMaxLUniform(2, p)
		if err != nil {
			t.Fatal(err)
		}
		if want := 1 / (p * (2 - p)); !approxEq(e2.PrefixSum(2), want, 1e-12) {
			t.Errorf("r=2 A2(p=%v) = %v, want %v", p, e2.PrefixSum(2), want)
		}
		if want := 1 / (p * p * (2 - p)); !approxEq(e2.PrefixSum(1), want, 1e-12) {
			t.Errorf("r=2 A1(p=%v) = %v, want %v", p, e2.PrefixSum(1), want)
		}
		e3, err := NewMaxLUniform(3, p)
		if err != nil {
			t.Fatal(err)
		}
		d := p*p - 3*p + 3
		if want := 1 / (p * d); !approxEq(e3.PrefixSum(3), want, 1e-12) {
			t.Errorf("r=3 A3(p=%v) = %v, want %v", p, e3.PrefixSum(3), want)
		}
		if want := 1 / (p * p * d * (2 - p)); !approxEq(e3.PrefixSum(2), want, 1e-12) {
			t.Errorf("r=3 A2(p=%v) = %v, want %v", p, e3.PrefixSum(2), want)
		}
		if want := (2 + p*p - 2*p) / (p * p * p * d * (2 - p)); !approxEq(e3.PrefixSum(1), want, 1e-12) {
			t.Errorf("r=3 A1(p=%v) = %v, want %v", p, e3.PrefixSum(1), want)
		}
	}
}

// TestMaxLUniformAlphaFormulaR2 locks the explicit coefficient vector (22).
func TestMaxLUniformAlphaFormulaR2(t *testing.T) {
	for _, p := range []float64{0.2, 0.5, 0.9} {
		e, err := NewMaxLUniform(2, p)
		if err != nil {
			t.Fatal(err)
		}
		a := e.Alpha()
		if want := 1 / (p * p * (2 - p)); !approxEq(a[0], want, 1e-12) {
			t.Errorf("alpha1(p=%v) = %v, want %v", p, a[0], want)
		}
		if want := -(1 - p) / (p * p * (2 - p)); !approxEq(a[1], want, 1e-12) {
			t.Errorf("alpha2(p=%v) = %v, want %v", p, a[1], want)
		}
	}
}

// TestMaxLUniformMatchesMaxL2 cross-validates the Algorithm 3 machinery
// against the independent r=2 closed form on every outcome.
func TestMaxLUniformMatchesMaxL2(t *testing.T) {
	for _, p := range []float64{0.1, 0.4, 0.5, 0.7, 1} {
		e, err := NewMaxLUniform(2, p)
		if err != nil {
			t.Fatal(err)
		}
		ps := []float64{p, p}
		for _, v := range valueGrid2 {
			for mask := 0; mask < 4; mask++ {
				o := ObliviousOutcome{P: ps,
					Sampled: []bool{mask&1 != 0, mask&2 != 0},
					Values:  []float64{v[0], v[1]},
				}
				if !o.Sampled[0] {
					o.Values[0] = 0
				}
				if !o.Sampled[1] {
					o.Values[1] = 0
				}
				got, want := e.Estimate(o), MaxL2(o)
				if !approxEq(got, want, 1e-10) {
					t.Errorf("p=%v v=%v mask=%b: uniform %v vs closed form %v", p, v, mask, got, want)
				}
			}
		}
	}
}

// TestMaxLUniformUnbiased checks unbiasedness by exact outcome enumeration
// for r up to 6 over random data vectors.
func TestMaxLUniformUnbiased(t *testing.T) {
	rng := randx.New(7)
	for r := 2; r <= 6; r++ {
		for _, p := range []float64{0.15, 0.5, 0.85} {
			e, err := NewMaxLUniform(r, p)
			if err != nil {
				t.Fatal(err)
			}
			ps := make([]float64, r)
			for i := range ps {
				ps[i] = p
			}
			for trial := 0; trial < 10; trial++ {
				v := make([]float64, r)
				for i := range v {
					if rng.Float64() < 0.25 {
						v[i] = 0
					} else {
						v[i] = math.Floor(rng.Float64()*100) / 10
					}
				}
				mean, _ := ObliviousMoments(ps, v, e.Estimate)
				want := maxOf(v)
				if !approxEq(mean, want, 1e-9) {
					t.Errorf("r=%d p=%v v=%v: mean %v want %v", r, p, v, mean, want)
				}
			}
		}
	}
}

// TestMaxLUniformLemma42 verifies the conditions of Lemma 4.2 — α_i < 0 for
// i > 1 and α_1 ≤ p^{−r} — which imply monotonicity, nonnegativity, and
// dominance over max^(HT). The paper verified them up to r = 4; we extend
// the numeric verification to r = 8.
func TestMaxLUniformLemma42(t *testing.T) {
	for r := 2; r <= 8; r++ {
		for _, p := range []float64{0.05, 0.2, 0.5, 0.8, 0.99} {
			e, err := NewMaxLUniform(r, p)
			if err != nil {
				t.Fatal(err)
			}
			a := e.Alpha()
			if a[0] <= 0 {
				t.Errorf("r=%d p=%v: alpha1 = %v not positive", r, p, a[0])
			}
			if bound := math.Pow(p, -float64(r)); a[0] > bound*(1+1e-9) {
				t.Errorf("r=%d p=%v: alpha1 = %v exceeds HT coefficient %v", r, p, a[0], bound)
			}
			for i := 1; i < r; i++ {
				if a[i] >= 1e-12 {
					t.Errorf("r=%d p=%v: alpha%d = %v not negative", r, p, i+1, a[i])
				}
			}
			// Prefix sums must be positive (needed for the monotone
			// manipulation argument) and total A_r = 1/(1−(1−p)^r).
			sum := 0.0
			for i, ai := range a {
				sum += ai
				if sum <= 0 {
					t.Errorf("r=%d p=%v: prefix sum A_%d = %v not positive", r, p, i+1, sum)
				}
			}
			if want := 1 / (1 - math.Pow(1-p, float64(r))); !approxEq(sum, want, 1e-6) {
				t.Errorf("r=%d p=%v: A_r = %v, want %v", r, p, sum, want)
			}
		}
	}
}

// TestMaxLUniformDominatesHT compares exact variances against max^(HT) for
// r = 3..5.
func TestMaxLUniformDominatesHT(t *testing.T) {
	rng := randx.New(11)
	for r := 3; r <= 5; r++ {
		for _, p := range []float64{0.2, 0.5, 0.8} {
			e, err := NewMaxLUniform(r, p)
			if err != nil {
				t.Fatal(err)
			}
			ps := make([]float64, r)
			for i := range ps {
				ps[i] = p
			}
			for trial := 0; trial < 8; trial++ {
				v := make([]float64, r)
				for i := range v {
					v[i] = rng.Float64() * 10
				}
				_, varL := ObliviousMoments(ps, v, e.Estimate)
				_, varHT := ObliviousMoments(ps, v, MaxHTOblivious)
				if varL > varHT*(1+1e-9)+1e-12 {
					t.Errorf("r=%d p=%v v=%v: VAR[L]=%v > VAR[HT]=%v", r, p, v, varL, varHT)
				}
			}
		}
	}
}

// TestMaxLUniformMonotoneQuick: adding a sampled entry (more information)
// never decreases the estimate.
func TestMaxLUniformMonotoneQuick(t *testing.T) {
	e, err := NewMaxLUniform(4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c float64) bool {
		vals := []float64{100 * frac(a), 100 * frac(b), 100 * frac(c)}
		// Estimate with 2 sampled values vs the same plus a third that is
		// not above the current max (the determining-vector manipulation
		// of Lemma 4.2).
		base := e.EstimateValues(vals[:2])
		mx := math.Max(vals[0], vals[1])
		extra := math.Min(vals[2], mx)
		more := e.EstimateValues([]float64{vals[0], vals[1], extra})
		return more >= base-1e-9*math.Max(1, math.Abs(base))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}

// TestMaxLUniformEdgeCases covers r=1 and p=1.
func TestMaxLUniformEdgeCases(t *testing.T) {
	if _, err := NewMaxLUniform(0, 0.5); err == nil {
		t.Error("expected error for r=0")
	}
	if _, err := NewMaxLUniform(2, 0); err == nil {
		t.Error("expected error for p=0")
	}
	if _, err := NewMaxLUniform(2, 1.5); err == nil {
		t.Error("expected error for p>1")
	}
	e, err := NewMaxLUniform(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// With p=1 everything is sampled and the estimate is the exact max.
	if got := e.EstimateValues([]float64{2, 9, 4}); !approxEq(got, 9, 1e-12) {
		t.Errorf("p=1 estimate = %v, want 9", got)
	}
	e1, err := NewMaxLUniform(1, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	// r=1: plain HT of the single value.
	if got := e1.EstimateValues([]float64{3}); !approxEq(got, 3/0.4, 1e-12) {
		t.Errorf("r=1 estimate = %v, want %v", got, 3/0.4)
	}
}

// TestBinaryTableMatchesEstimateInto: for r = 2…6, every assignment of
// {unsampled, sampled one, sampled zero} to the r entries — every
// (ones, zeros) pattern in every permutation — estimates to the bits the
// table holds for its counts.
func TestBinaryTableMatchesEstimateInto(t *testing.T) {
	for r := 2; r <= 6; r++ {
		for _, p := range []float64{0.05, 0.3, 0.5, 1} {
			e, err := ORLUniform(r, p)
			if err != nil {
				t.Fatal(err)
			}
			table := make([]float64, (r+1)*(r+1))
			e.BinaryTableInto(table, make([]bool, r), make([]float64, r), make([]float64, 0, r))
			o := ObliviousOutcome{P: make([]float64, r), Sampled: make([]bool, r), Values: make([]float64, r)}
			patterns := 1
			for i := 0; i < r; i++ {
				patterns *= 3
			}
			for code := 0; code < patterns; code++ {
				ones, zeros := 0, 0
				for i, c := 0, code; i < r; i, c = i+1, c/3 {
					o.Sampled[i], o.Values[i] = c%3 != 0, 0
					switch c % 3 {
					case 1:
						o.Values[i] = 1
						ones++
					case 2:
						zeros++
					}
				}
				got, want := table[ones*(r+1)+zeros], e.estimateInto(o, make([]float64, 0, r))
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("r=%d p=%v pattern %v/%v: table[%d ones, %d zeros] = %v, EstimateInto = %v",
						r, p, o.Sampled, o.Values, ones, zeros, got, want)
				}
			}
		}
	}
}
