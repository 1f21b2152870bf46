package simdata

import (
	"math"
	"testing"

	"repro/internal/dataset"
)

// TestPaperTrafficCalibration: the S1 substitution (see the package doc)
// must reproduce the §8.2 published statistics within a few percent.
func TestPaperTrafficCalibration(t *testing.T) {
	m := Generate(PaperTraffic())
	d1, d2 := len(m.Instances[0]), len(m.Instances[1])
	union := len(m.Keys())
	if d1 != 24500 || d2 != 24500 {
		t.Errorf("distinct per hour = %d, %d, want 24500", d1, d2)
	}
	if union != 38000 {
		t.Errorf("union = %d, want 38000", union)
	}
	within := func(got, want, tol float64) bool {
		return math.Abs(got-want)/want <= tol
	}
	f1, f2 := m.Instances[0].Total(), m.Instances[1].Total()
	if !within(f1, 5.5e5, 0.15) || !within(f2, 5.5e5, 0.15) {
		t.Errorf("flows per hour = %v, %v, want ≈5.5e5", f1, f2)
	}
	sumMax := m.SumAggregate(dataset.Max, nil)
	if !within(sumMax, 7.47e5, 0.15) {
		t.Errorf("sum of maxima = %v, want ≈7.47e5", sumMax)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(ScaledTraffic(50))
	b := Generate(ScaledTraffic(50))
	if len(a.Instances[0]) != len(b.Instances[0]) {
		t.Fatal("sizes differ")
	}
	for h, v := range a.Instances[0] {
		if b.Instances[0][h] != v {
			t.Fatalf("value mismatch at key %d", h)
		}
	}
	c := Generate(TrafficConfig{SharedKeys: 100, Only1: 10, Only2: 10, Alpha: 1.3, MeanValue: 5, Seed: 999})
	if len(c.Instances[0]) != 110 {
		t.Errorf("instance size %d, want 110", len(c.Instances[0]))
	}
}

func TestScaledTraffic(t *testing.T) {
	c := ScaledTraffic(10)
	if c.SharedKeys != 1100 || c.Only1 != 1350 {
		t.Errorf("scaled config %+v", c)
	}
	m := Generate(c)
	if got := len(m.Keys()); got != 3800 {
		t.Errorf("scaled union = %d, want 3800", got)
	}
}

func TestTrafficCorrelation(t *testing.T) {
	// Jitter 0: shared keys identical across hours.
	m := Generate(TrafficConfig{SharedKeys: 200, Only1: 0, Only2: 0, Alpha: 1.3, MeanValue: 10, Jitter: 0, Seed: 1})
	for h, v := range m.Instances[0] {
		if m.Instances[1][h] != v {
			t.Fatalf("jitter 0 but values differ at key %d", h)
		}
	}
	// Positive jitter: values differ but stay positively correlated
	// (min/max ratio bounded away from 0 on average).
	m2 := Generate(TrafficConfig{SharedKeys: 2000, Only1: 0, Only2: 0, Alpha: 1.3, MeanValue: 10, Jitter: 0.9, Seed: 2})
	ratioSum, n := 0.0, 0
	diff := 0
	for h, v1 := range m2.Instances[0] {
		v2 := m2.Instances[1][h]
		if v1 != v2 {
			diff++
		}
		ratioSum += math.Min(v1, v2) / math.Max(v1, v2)
		n++
	}
	if diff == 0 {
		t.Error("jitter 0.9 produced identical instances")
	}
	if avg := ratioSum / float64(n); avg < 0.4 {
		t.Errorf("average min/max ratio %v — shared values not correlated", avg)
	}
}

func TestRequestLog(t *testing.T) {
	logs := RequestLog(1000, 3, 0.3, 7)
	if len(logs) != 3 {
		t.Fatalf("instances = %d", len(logs))
	}
	for i, set := range logs {
		if len(set) == 0 || len(set) == 1000 {
			t.Errorf("instance %d has degenerate activity %d", i, len(set))
		}
	}
	// Overlap between periods exceeds the independence baseline thanks to
	// the popularity mixture.
	inter, n1, n2 := 0, len(logs[0]), len(logs[1])
	for h := range logs[0] {
		if logs[1][h] {
			inter++
		}
	}
	expectedIndep := float64(n1) * float64(n2) / 1000
	if float64(inter) < expectedIndep {
		t.Errorf("intersection %d below independence baseline %v", inter, expectedIndep)
	}
}

func TestSensorSnapshots(t *testing.T) {
	m := SensorSnapshots(100, 4, 0.2, 9)
	if m.R() != 4 {
		t.Fatalf("r = %d", m.R())
	}
	if len(m.Keys()) != 100 {
		t.Fatalf("keys = %d", len(m.Keys()))
	}
	// Consecutive snapshots are similar: relative change bounded by the
	// drift envelope.
	for _, h := range m.Keys() {
		v := m.Vector(h)
		for i := 1; i < 4; i++ {
			if v[i] <= 0 {
				t.Fatalf("non-positive reading at key %d", h)
			}
			ratio := v[i] / v[i-1]
			if ratio > math.Exp(0.2)*1.5 || ratio < math.Exp(-0.2)/1.5 {
				t.Errorf("key %d: jump %v exceeds drift envelope", h, ratio)
			}
		}
	}
}
