package estimator

import (
	"math"
	"testing"
)

// The kernels' exact test: over every outcome, the mean of the term
// f̂² − ĝ equals the variance of f̂, both computed by the same exact
// moment function.

// probPairs returns every (p1, p2) over probGrid.
func probPairs() [][]float64 {
	var out [][]float64
	for _, p1 := range probGrid {
		for _, p2 := range probGrid {
			out = append(out, []float64{p1, p2})
		}
	}
	return out
}

// meanIsVariance reports whether a term's exact mean matches the exact
// variance to 1e-9 relative. A zero variance (an entry sampled with
// probability 1 that holds the max) is met by cancellation noise instead,
// allowed up to 1e-12·mx² for the largest value mx.
func meanIsVariance(mean, variance, mx float64) bool {
	return math.Abs(mean-variance) <= 1e-9*math.Abs(variance)+1e-12*mx*mx
}

// TestMaxL2VarTermMeanIsVariance: E[maxL2VarTerm] = VAR[MaxL2] on every
// value and probability pair of the grid; at p = ½ that is also the
// Figure 1 closed form VarMaxL2Half, and on binary data equation (24)'s
// VarORL11 and §4.3's VarORL10.
func TestMaxL2VarTermMeanIsVariance(t *testing.T) {
	term := func(o ObliviousOutcome) float64 {
		return maxL2VarTerm(o.Sampled[0], o.Sampled[1], o.Values[0], o.Values[1], o.P[0], o.P[1])
	}
	for _, p := range probPairs() {
		for _, vv := range valueGrid2 {
			v := vv[:]
			mean, _ := ObliviousMoments(p, v, term)
			_, variance := ObliviousMoments(p, v, MaxL2)
			if !meanIsVariance(mean, variance, maxOf(v)) {
				t.Errorf("p=%v v=%v: E[term] = %v, VAR[MaxL2] = %v", p, v, mean, variance)
			}
			if p[0] == 0.5 && p[1] == 0.5 {
				if want := VarMaxL2Half(v[0], v[1]); !meanIsVariance(mean, want, maxOf(v)) {
					t.Errorf("p=½ v=%v: E[term] = %v, VarMaxL2Half = %v", v, mean, want)
				}
			}
		}
		for _, c := range []struct {
			v    []float64
			want float64
		}{
			{[]float64{1, 1}, VarORL11(p[0], p[1])},
			{[]float64{1, 0}, VarORL10(p[0], p[1])},
			{[]float64{0, 1}, VarORL10(p[1], p[0])},
		} {
			if mean, _ := ObliviousMoments(p, c.v, term); !meanIsVariance(mean, c.want, 1) {
				t.Errorf("p=%v v=%v: E[term] = %v, closed form %v", p, c.v, mean, c.want)
			}
		}
	}
}

// TestMaxLUniformVarTermMeanIsVariance: E[varTermInto] = VAR[max^(L)] for
// r = 2..4 on every vector over {0, ½, 1, 3}.
func TestMaxLUniformVarTermMeanIsVariance(t *testing.T) {
	for r := 2; r <= 4; r++ {
		dom := make([][]float64, r)
		for i := range dom {
			dom[i] = []float64{0, 0.5, 1, 3}
		}
		for _, p := range []float64{0.1, 0.4, 0.7, 1} {
			e, err := NewMaxLUniform(r, p)
			if err != nil {
				t.Fatal(err)
			}
			ps := make([]float64, r)
			for i := range ps {
				ps[i] = p
			}
			z, sq := make([]float64, 0, r), make([]float64, r)
			term := func(o ObliviousOutcome) float64 { return e.varTermInto(o, z, sq) }
			for _, v := range enumerate(dom) {
				mean, _ := ObliviousMoments(ps, v, term)
				_, variance := ObliviousMoments(ps, v, e.Estimate)
				if !meanIsVariance(mean, variance, maxOf(v)) {
					t.Errorf("r=%d p=%v v=%v: E[term] = %v, VAR = %v", r, p, v, mean, variance)
				}
			}
		}
	}
}

// TestMaxLVarTermsMatchDerivedOracle: ĝ is the derivation engine's own
// answer for f = max² under the max^(L) order. On {0,1,2}^r, l² − term
// must equal the Derive table of max² on every outcome, for MaxL2 (r = 2,
// general p) and MaxLUniform (r = 3).
func TestMaxLVarTermsMatchDerivedOracle(t *testing.T) {
	sq := func(v []float64) float64 { m := maxOf(v); return m * m }
	for _, p := range [][]float64{{0.3, 0.6}, {0.5, 0.5}, {0.8, 0.15}, {0.4, 0.4, 0.4}, {0.7, 0.7, 0.7}} {
		r := len(p)
		dom := make([][]float64, r)
		for i := range dom {
			dom[i] = []float64{0, 1, 2}
		}
		d, err := Derive(DiscreteProblem{P: p, Domains: dom, F: sq, Less: MaxLOrder})
		if err != nil {
			t.Fatal(err)
		}
		var l, term func(ObliviousOutcome) float64
		if r == 2 {
			l = MaxL2
			term = func(o ObliviousOutcome) float64 {
				return maxL2VarTerm(o.Sampled[0], o.Sampled[1], o.Values[0], o.Values[1], p[0], p[1])
			}
		} else {
			e, err := NewMaxLUniform(r, p[0])
			if err != nil {
				t.Fatal(err)
			}
			z, sq := make([]float64, 0, r), make([]float64, r)
			l = e.Estimate
			term = func(o ObliviousOutcome) float64 { return e.varTermInto(o, z, sq) }
		}
		forEachOutcome(p, dom, func(o ObliviousOutcome) {
			want, err := d.Estimate(o)
			if err != nil {
				t.Fatal(err)
			}
			x := l(o)
			if g := x*x - term(o); !approxEq(g, want, 1e-9) {
				t.Errorf("p=%v outcome %v/%v: ĝ = %v, Derive(max²) = %v", p, o.Sampled, o.Values, g, want)
			}
		})
	}
}

// TestBinaryVarTableMeanIsVariance: the t(t − 1) table beside
// BinaryTableInto's has mean VAR[OR^(L)] on every binary vector, under
// oblivious sampling and, for r = 2, under known seeds (equation (24) and
// §4.3).
func TestBinaryVarTableMeanIsVariance(t *testing.T) {
	for _, r := range []int{2, 3, 5} {
		for _, p := range []float64{0.1, 0.4, 0.7} {
			e, err := NewMaxLUniform(r, p)
			if err != nil {
				t.Fatal(err)
			}
			table := make([]float64, (r+1)*(r+1))
			vt := make([]float64, len(table))
			e.BinaryTableInto(table, make([]bool, r), make([]float64, r), make([]float64, 0, r))
			binaryVarTableInto(vt, table)
			cell := func(o ObliviousOutcome) int {
				ones, zeros := 0, 0
				for i, s := range o.Sampled {
					switch {
					case s && o.Values[i] > 0:
						ones++
					case s:
						zeros++
					}
				}
				return ones*(r+1) + zeros
			}
			est := func(o ObliviousOutcome) float64 { return table[cell(o)] }
			term := func(o ObliviousOutcome) float64 { return vt[cell(o)] }
			ps := make([]float64, r)
			for i := range ps {
				ps[i] = p
			}
			dom := make([][]float64, r)
			for i := range dom {
				dom[i] = []float64{0, 1}
			}
			for _, v := range enumerate(dom) {
				mean, _ := ObliviousMoments(ps, v, term)
				_, variance := ObliviousMoments(ps, v, est)
				if !meanIsVariance(mean, variance, 1) {
					t.Errorf("r=%d p=%v v=%v: E[term] = %v, VAR = %v", r, p, v, mean, variance)
				}
			}
			if r != 2 {
				continue
			}
			seeded := func(o BinaryKnownSeedsOutcome) float64 { return term(o.ToOblivious()) }
			for _, c := range []struct {
				v    []float64
				want float64
			}{{[]float64{1, 1}, VarORL11(p, p)}, {[]float64{1, 0}, VarORL10(p, p)}, {[]float64{0, 0}, 0}} {
				mean, _ := BinaryKnownSeedsMoments(ps, c.v, seeded)
				_, variance := BinaryKnownSeedsMoments(ps, c.v, ORLKnownSeeds)
				if !meanIsVariance(mean, variance, 1) || !meanIsVariance(mean, c.want, 1) {
					t.Errorf("known seeds p=%v v=%v: E[term] = %v, VAR = %v, closed form %v", p, c.v, mean, variance, c.want)
				}
			}
		}
	}
}

// TestDistinctVarLEstimateMeanIsVariance: per key, the §8.1 kernel over
// one key's category has mean VAR[OR^(L)] under known seeds; summed over
// a union of D keys, a fraction J of them in both sets, that is
// DistinctEstimator.VarL.
func TestDistinctVarLEstimateMeanIsVariance(t *testing.T) {
	for _, p := range probPairs() {
		e := DistinctEstimator{P1: p[0], P2: p[1]}
		key := func(o BinaryKnownSeedsOutcome) DistinctCounts {
			var c DistinctCounts
			c.Add(Categorize(o.Sampled[0], o.Sampled[1], o.U[0], o.U[1], p[0], p[1]))
			return c
		}
		term := func(o BinaryKnownSeedsOutcome) float64 { return e.varLEstimate(key(o)) }
		est := func(o BinaryKnownSeedsOutcome) float64 { return e.L(key(o)) }
		means := make([]float64, len(binaryVectors2))
		for i, v := range binaryVectors2 {
			mean, _ := BinaryKnownSeedsMoments(p, v, term)
			_, variance := BinaryKnownSeedsMoments(p, v, est)
			if !meanIsVariance(mean, variance, 1) {
				t.Errorf("p=%v v=%v: E[term] = %v, VAR[L] = %v", p, v, mean, variance)
			}
			means[i] = mean
		}
		m10, m11 := means[1], means[3] // binaryVectors2 is (0,0), (1,0), (0,1), (1,1)
		const d = 1000
		for _, j := range []float64{0, 0.3, 1} {
			got := d*j*m11 + d*(1-j)*m10
			if want := e.VarL(d, j); !meanIsVariance(got, want, 1) {
				t.Errorf("p=%v J=%v: E[Σ terms] = %v, VarL = %v", p, j, got, want)
			}
		}
	}
}

// TestMaxPPS2VarTermsMeanIsVariance: under r = 2 PPS with known seeds the
// terms' integrated means equal the integrated variances of max^(HT) and
// max^(L), to 1e-8 of max(VAR, max(v)²). The integrator's boundary nudges
// (ε = 1e-9 in regionIntegrate) leave a relative floor of several 1e-9
// that does not shrink with n, and on a vector whose variance is 0 it
// returns a variance of order 1e-7·max(v)², so 1e-9 relative is out of
// reach here.
func TestMaxPPS2VarTermsMeanIsVariance(t *testing.T) {
	const n = 4096
	terms := func(o PPSOutcome) (float64, float64) {
		ht, l := MaxPPS2(o.Sampled[0], o.Sampled[1], o.Values[0], o.Values[1], o.U[0]*o.Tau[0], o.U[1]*o.Tau[1], o.Tau[0], o.Tau[1])
		return maxPPS2VarTerms(o.maxSampled(), ht, l)
	}
	htTerm := func(o PPSOutcome) float64 { x, _ := terms(o); return x }
	lTerm := func(o PPSOutcome) float64 { _, x := terms(o); return x }
	for _, c := range ppsCases {
		v := []float64{c.v1, c.v2}
		tau := []float64{c.t1, c.t2}
		scale := maxOf(v) * maxOf(v)
		for _, k := range []struct {
			name string
			est  func(PPSOutcome) float64
			term func(PPSOutcome) float64
		}{{"HT", MaxHTPPS, htTerm}, {"L", MaxL2PPS, lTerm}} {
			mean, _ := PPSMoments2(v, tau, k.term, n)
			_, variance := PPSMoments2(v, tau, k.est, n)
			if math.Abs(mean-variance) > 1e-8*math.Max(variance, scale) {
				t.Errorf("%s, %s: E[term] = %v, VAR = %v", c.name, k.name, mean, variance)
			}
		}
	}
}

// TestVarKernelsAllocateNothing: the kernels are per-key work in a merge,
// so they allocate nothing.
func TestVarKernelsAllocateNothing(t *testing.T) {
	e, err := NewMaxLUniform(3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	o := ObliviousOutcome{P: []float64{0.4, 0.4, 0.4}, Sampled: []bool{true, false, true}, Values: []float64{2, 0, 1}}
	z, sq := make([]float64, 0, 3), make([]float64, 3)
	table := make([]float64, 16)
	vt := make([]float64, 16)
	e.BinaryTableInto(table, make([]bool, 3), make([]float64, 3), make([]float64, 0, 3))
	de := DistinctEstimator{P1: 0.3, P2: 0.6}
	c := DistinctCounts{F1Q: 3, FQ1: 1, F11: 4, F10: 2, F01: 5}
	var sink float64
	for name, f := range map[string]func(){
		"maxL2VarTerm":       func() { sink += maxL2VarTerm(true, true, 2, 1, 0.3, 0.6) },
		"varTermInto":        func() { sink += e.varTermInto(o, z, sq) },
		"binaryVarTableInto": func() { binaryVarTableInto(vt, table) },
		"varLEstimate":       func() { sink += de.varLEstimate(c) },
		"maxPPS2VarTerms": func() {
			a, b := maxPPS2VarTerms(3, 4, 5)
			sink += a + b
		},
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, allocs)
		}
	}
	_ = sink
}
