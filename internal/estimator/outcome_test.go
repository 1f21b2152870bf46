package estimator

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
)

func TestObliviousOutcomeHelpers(t *testing.T) {
	o := ObliviousOutcome{
		P:       []float64{0.5, 0.4, 0.3},
		Sampled: []bool{true, false, true},
		Values:  []float64{2, 0, 7},
	}
	if o.r() != 3 {
		t.Errorf("R = %d", o.r())
	}
	if o.NumSampled() != 2 {
		t.Errorf("NumSampled = %d", o.NumSampled())
	}
	if o.maxSampled() != 7 {
		t.Errorf("MaxSampled = %v", o.maxSampled())
	}
	phi := o.DeterminingVector()
	if phi[0] != 2 || phi[1] != 7 || phi[2] != 7 {
		t.Errorf("DeterminingVector = %v", phi)
	}
	empty := ObliviousOutcome{P: o.P, Sampled: make([]bool, 3), Values: make([]float64, 3)}
	if empty.maxSampled() != 0 || empty.NumSampled() != 0 {
		t.Error("empty outcome helpers wrong")
	}
	for _, x := range empty.DeterminingVector() {
		if x != 0 {
			t.Error("empty determining vector not zero")
		}
	}
}

func TestObliviousOutcomeValidate(t *testing.T) {
	good := ObliviousOutcome{P: []float64{0.5, 1}, Sampled: []bool{true, false}, Values: []float64{1, 0}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid outcome rejected: %v", err)
	}
	bad := []ObliviousOutcome{
		{P: []float64{0.5}, Sampled: []bool{true, false}, Values: []float64{1, 0}},
		{P: []float64{0, 0.5}, Sampled: []bool{true, false}, Values: []float64{1, 0}},
		{P: []float64{0.5, 1.5}, Sampled: []bool{true, false}, Values: []float64{1, 0}},
		{P: []float64{0.5, math.NaN()}, Sampled: []bool{true, false}, Values: []float64{1, 0}},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: invalid outcome accepted", i)
		}
	}
}

func TestPPSOutcomeHelpers(t *testing.T) {
	o := PPSOutcome{
		Tau:     []float64{10, 20},
		U:       []float64{0.3, 0.4},
		Sampled: []bool{true, false},
		Values:  []float64{5, 0},
	}
	if o.r() != 2 || o.numSampled() != 1 || o.maxSampled() != 5 {
		t.Error("PPS helpers wrong")
	}
	if got := o.UpperBound(0); got != 5 {
		t.Errorf("UpperBound(sampled) = %v", got)
	}
	if got := o.UpperBound(1); got != 8 {
		t.Errorf("UpperBound(unsampled) = %v, want 0.4·20", got)
	}
	phi := o.DeterminingVector()
	// min{u·τ, max sampled} = min{8, 5} = 5.
	if phi[0] != 5 || phi[1] != 5 {
		t.Errorf("DeterminingVector = %v", phi)
	}
}

func TestMaxLUniformAccessors(t *testing.T) {
	e, err := NewMaxLUniform(4, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("PrefixSum(0) did not panic")
		}
	}()
	e.PrefixSum(0)
}

func TestORHTKnownSeedsValues(t *testing.T) {
	p := []float64{0.5, 0.5}
	// Full revelation with OR = 1.
	o := BinaryKnownSeedsOutcome{P: p, U: []float64{0.1, 0.1}, Sampled: []bool{true, false}}
	if got := ORHTKnownSeeds(o); !approxEq(got, 4, 1e-12) {
		t.Errorf("ORHT = %v, want 4", got)
	}
	// Partial revelation: 0.
	o2 := BinaryKnownSeedsOutcome{P: p, U: []float64{0.1, 0.9}, Sampled: []bool{true, false}}
	if got := ORHTKnownSeeds(o2); got != 0 {
		t.Errorf("ORHT partial = %v, want 0", got)
	}
}

func TestDerivedStringRendering(t *testing.T) {
	d, err := Derive(DiscreteProblem{
		P:       []float64{0.5, 0.5},
		Domains: [][]float64{{0, 1}, {0, 1}},
		F:       orOf,
		Less:    ORLOrder,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := d.String()
	if len(s) == 0 {
		t.Fatal("empty rendering")
	}
	// One line per outcome.
	lines := 0
	for _, c := range s {
		if c == '\n' {
			lines++
		}
	}
	if lines != d.Len() {
		t.Errorf("rendered %d lines for %d outcomes", lines, d.Len())
	}
}

func TestDerivedEstimateRejectsUnknown(t *testing.T) {
	d, err := Derive(DiscreteProblem{
		P:       []float64{0.5, 0.5},
		Domains: [][]float64{{0, 1}, {0, 1}},
		F:       orOf,
		Less:    ORLOrder,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Value outside the domain.
	if _, err := d.Estimate(ObliviousOutcome{
		P: []float64{0.5, 0.5}, Sampled: []bool{true, false}, Values: []float64{7, 0},
	}); err == nil {
		t.Error("out-of-domain value accepted")
	}
}

// TestIntoKernelsOverwriteScratch: the caller-owned-scratch kernels answer
// exactly like their allocating wrappers whatever the scratch held before
// (a per-key loop hands them the previous key's leftovers), including
// scratch longer than the outcome, and allocate nothing.
func TestIntoKernelsOverwriteScratch(t *testing.T) {
	const r = 4
	est, err := NewMaxLUniform(r, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	dirtyF := func() []float64 { return []float64{9, -1, math.NaN(), 7, 3, 3} }
	dirtyB := func() []bool { return []bool{true, true, true, true, true, true} }
	for mask := 0; mask < 1<<(2*r); mask++ {
		pps := PPSOutcome{Tau: []float64{3, 5, 2, 8}, U: make([]float64, r), Sampled: make([]bool, r), Values: make([]float64, r)}
		bin := BinaryKnownSeedsOutcome{P: []float64{0.3, 0.3, 0.3, 0.3}, U: pps.U, Sampled: pps.Sampled}
		for i := 0; i < r; i++ {
			pps.Sampled[i] = mask>>i&1 == 1
			pps.U[i] = 0.1 + 0.5*float64(mask>>(r+i)&1) // below or above p
			if pps.Sampled[i] {
				pps.Values[i] = float64(1 + (mask+i)%3)
			}
		}
		if got, want := pps.determiningVectorInto(dirtyF()), pps.DeterminingVector(); !slices.Equal(got, want) {
			t.Fatalf("mask %b: DeterminingVectorInto %v, DeterminingVector %v", mask, got, want)
		}
		got, want := bin.toObliviousInto(dirtyB(), dirtyF()), bin.ToOblivious()
		if !slices.Equal(got.Values, want.Values) || !slices.Equal(got.Sampled, want.Sampled) {
			t.Fatalf("mask %b: ToObliviousInto %+v, ToOblivious %+v", mask, got, want)
		}
		if g, w := est.estimateInto(got, dirtyF()), est.Estimate(want); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("mask %b: EstimateInto %v, Estimate %v", mask, g, w)
		}
	}

	pps := SamplePPS([]float64{4, 1}, []float64{0.2, 0.9}, []float64{5, 5})
	bin := SampleBinaryKnownSeeds([]float64{1, 0, 1, 1}, []float64{0.1, 0.2, 0.9, 0.25}, []float64{0.3, 0.3, 0.3, 0.3})
	sampled, values, z := make([]bool, r), make([]float64, r), make([]float64, r)
	if allocs := testing.AllocsPerRun(100, func() {
		MaxL2PPS(pps)
		MaxHTPPS(pps)
		est.estimateInto(bin.toObliviousInto(sampled, values), z)
	}); allocs != 0 {
		t.Errorf("per-key kernels allocate %v times per key, want 0", allocs)
	}
}

// NumSampled returns |S|, the number of sampled entries.
func (o ObliviousOutcome) NumSampled() int {
	n := 0
	for _, s := range o.Sampled {
		if s {
			n++
		}
	}
	return n
}

// Validate checks structural invariants. Estimator functions assume a valid
// outcome; call Validate at trust boundaries.
func (o ObliviousOutcome) Validate() error {
	if len(o.Sampled) != len(o.P) || len(o.Values) != len(o.P) {
		return errors.New("estimator: outcome slices have mismatched lengths")
	}
	for i, p := range o.P {
		if !(p > 0 && p <= 1) {
			return fmt.Errorf("estimator: inclusion probability p[%d]=%v outside (0,1]", i, p)
		}
	}
	return nil
}

// DeterminingVector returns φ(S) under the §4.1 order: sampled entries keep
// their values and unsampled entries are set to the maximum sampled value
// (the ≺-minimal vector consistent with the outcome). For the empty outcome
// this is the zero vector.
func (o ObliviousOutcome) DeterminingVector() []float64 {
	m := o.maxSampled()
	phi := make([]float64, o.r())
	for i := range phi {
		if o.Sampled[i] {
			phi[i] = o.Values[i]
		} else {
			phi[i] = m
		}
	}
	return phi
}

// UpperBound returns the revealed upper bound on entry i: the exact value
// when sampled, otherwise U[i]·Tau[i] (exclusive).
func (o PPSOutcome) UpperBound(i int) float64 {
	if o.Sampled[i] {
		return o.Values[i]
	}
	return o.U[i] * o.Tau[i]
}

// DeterminingVector returns φ(S) under the §5.2 order: 0 for the empty
// outcome; otherwise sampled entries keep their values and each unsampled
// entry i gets min{max sampled value, U[i]·Tau[i]}.
func (o PPSOutcome) DeterminingVector() []float64 {
	return o.determiningVectorInto(make([]float64, o.r()))
}

// SampleBinaryKnownSeeds materializes the weighted binary outcome for data
// vector v ∈ {0,1}^r with seeds u and one-value inclusion probabilities p.
func SampleBinaryKnownSeeds(v []float64, u, p []float64) BinaryKnownSeedsOutcome {
	r := len(v)
	o := BinaryKnownSeedsOutcome{P: p, U: u, Sampled: make([]bool, r)}
	for i := 0; i < r; i++ {
		o.Sampled[i] = v[i] > 0 && u[i] <= p[i]
	}
	return o
}

// maxSampled returns the maximum sampled value, or 0 when S is empty.
func (o ObliviousOutcome) maxSampled() float64 {
	m := 0.0
	first := true
	for i, s := range o.Sampled {
		if !s {
			continue
		}
		if first || o.Values[i] > m {
			m = o.Values[i]
			first = false
		}
	}
	return m
}

// determiningVectorInto is DeterminingVector over caller-owned scratch: it
// writes φ(S) into the first R() elements of phi (which must be at least
// that long; prior contents are overwritten) and returns that prefix.
//
//summarylint:hot
func (o PPSOutcome) determiningVectorInto(phi []float64) []float64 {
	phi = phi[:o.r()]
	m := o.maxSampled()
	if o.numSampled() == 0 {
		clear(phi)
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

// numSampled returns |S|.
func (o PPSOutcome) numSampled() int {
	n := 0
	for _, s := range o.Sampled {
		if s {
			n++
		}
	}
	return n
}
