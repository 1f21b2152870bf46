package dataset

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPrimitives(t *testing.T) {
	cases := []struct {
		v            []float64
		max, min, rg float64
	}{
		{[]float64{3, 1, 2}, 3, 1, 2},
		{[]float64{0, 0}, 0, 0, 0},
		{[]float64{5}, 5, 5, 0},
		{[]float64{2, 2, 2}, 2, 2, 0},
		{[]float64{0, 7}, 7, 0, 7},
	}
	for _, c := range cases {
		if got := Max(c.v); got != c.max {
			t.Errorf("Max(%v) = %v, want %v", c.v, got, c.max)
		}
		if got := minEntry(c.v); got != c.min {
			t.Errorf("minEntry(%v) = %v, want %v", c.v, got, c.min)
		}
		if got := Range(c.v); got != c.rg {
			t.Errorf("Range(%v) = %v, want %v", c.v, got, c.rg)
		}
	}
}

func TestMatrixAccessors(t *testing.T) {
	m := FigureFive()
	if m.R() != 3 {
		t.Fatalf("R = %d", m.R())
	}
	keys := m.Keys()
	if len(keys) != 6 {
		t.Fatalf("keys = %v", keys)
	}
	if v := m.Vector(4); v[0] != 5 || v[1] != 20 || v[2] != 0 {
		t.Errorf("Vector(4) = %v", v)
	}
	if got := m.Instances[0].Total(); got != 50 {
		t.Errorf("instance 1 total = %v", got)
	}
	ks := m.Instances[0].Keys()
	if len(ks) != 5 || ks[0] != 1 {
		t.Errorf("instance keys = %v", ks)
	}
}

// TestFigureFiveWorkedAggregates locks the §7 worked numbers: 40 and 18.
func TestFigureFiveWorkedAggregates(t *testing.T) {
	m := FigureFive()
	m12 := NewMatrix(m.Instances[0], m.Instances[1])
	even := func(h Key) bool { return h%2 == 0 }
	if got := m12.SumAggregate(Max, even); got != 40 {
		t.Errorf("max-dominance even keys {1,2} = %v, want 40", got)
	}
	m23 := NewMatrix(m.Instances[1], m.Instances[2])
	first3 := func(h Key) bool { return h <= 3 }
	if got := m23.SumAggregate(Range, first3); got != 18 {
		t.Errorf("L1 distance keys {1,2,3} instances {2,3} = %v, want 18", got)
	}
	if got := len(m.Keys()); got != 6 {
		t.Errorf("distinct keys = %v, want 6", got)
	}
}

// TestPrimitiveInvariantsQuick drives the structural identities with
// testing/quick.
func TestPrimitiveInvariantsQuick(t *testing.T) {
	f := func(a, b, c float64) bool {
		v := []float64{math.Abs(a), math.Abs(b), math.Abs(c)}
		if Max(v) < minEntry(v) {
			return false
		}
		return Range(v) == Max(v)-minEntry(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSumAggregateNilSelection(t *testing.T) {
	m := FigureFive()
	all := m.SumAggregate(Max, nil)
	sel := m.SumAggregate(Max, func(Key) bool { return true })
	if all != sel {
		t.Errorf("nil selection %v != full selection %v", all, sel)
	}
	none := m.SumAggregate(Max, func(Key) bool { return false })
	if none != 0 {
		t.Errorf("empty selection = %v", none)
	}
}
