// Package dataset models the paper's data: a matrix of instances × keys.
//
// Each instance assigns nonnegative values to keys drawn from a shared key
// universe (§1). Instances are snapshots of a changing database, periodic
// request logs, or sensor measurement rounds. Only positive values are
// represented explicitly (sparse representation), matching the setting where
// weighted sampling processes active keys only.
package dataset

import "sort"

// Key identifies a record across instances.
type Key uint64

// Instance is a single assignment of positive values to keys. A key absent
// from the map has value 0.
type Instance map[Key]float64

// Total returns the sum of all values in the instance.
func (in Instance) Total() float64 {
	t := 0.0
	for _, v := range in {
		t += v
	}
	return t
}

// Keys returns the instance's active keys in ascending order.
func (in Instance) Keys() []Key {
	ks := make([]Key, 0, len(in))
	for h := range in {
		ks = append(ks, h)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// Matrix is a set of r dispersed instances over a shared key universe.
type Matrix struct {
	Instances []Instance
}

// NewMatrix builds a matrix from the given instances.
func NewMatrix(instances ...Instance) *Matrix {
	return &Matrix{Instances: instances}
}

// R returns the number of instances.
func (m *Matrix) R() int { return len(m.Instances) }

// Vector returns v(h): the values of key h across all instances.
func (m *Matrix) Vector(h Key) []float64 {
	v := make([]float64, len(m.Instances))
	for i, in := range m.Instances {
		v[i] = in[h]
	}
	return v
}

// Keys returns the union of active keys over all instances, ascending.
func (m *Matrix) Keys() []Key {
	seen := make(map[Key]struct{})
	for _, in := range m.Instances {
		for h := range in {
			seen[h] = struct{}{}
		}
	}
	ks := make([]Key, 0, len(seen))
	for h := range seen {
		ks = append(ks, h)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// SumAggregate computes the exact sum aggregate Σ_{h∈sel} f(v(h)) over the
// union of active keys. A nil sel selects every key. This is the ground
// truth the estimators approximate.
func (m *Matrix) SumAggregate(f Func, sel func(Key) bool) float64 {
	total := 0.0
	for _, h := range m.Keys() {
		if sel != nil && !sel(h) {
			continue
		}
		total += f(m.Vector(h))
	}
	return total
}

// Func is a multi-instance primitive applied to the values of one key.
type Func func(v []float64) float64

// Max returns the maximum entry (0 for an empty vector).
func Max(v []float64) float64 {
	m := 0.0
	for i, x := range v {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// minEntry returns the minimum entry (0 for an empty vector).
func minEntry(v []float64) float64 {
	m := 0.0
	for i, x := range v {
		if i == 0 || x < m {
			m = x
		}
	}
	return m
}

// Range returns RG(v) = max(v) − min(v).
func Range(v []float64) float64 { return Max(v) - minEntry(v) }
