// Package randx provides a small deterministic PRNG and the distributions
// used by the workload generators.
//
// Everything in this repository is reproducible from a 64-bit seed; randx
// wraps a splitmix64 stream with the inverse-CDF samplers needed for
// synthetic traffic and sensor workloads (uniform, Pareto).
package randx

import "math"

// RNG is a splitmix64 pseudo-random generator. The zero value is a valid
// generator seeded with 0.
type RNG struct {
	state uint64
}

// New returns an RNG seeded deterministically.
func New(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	x := r.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform sample from [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// float64Pos returns a uniform sample from (0, 1].
func (r *RNG) float64Pos() float64 {
	return 1 - r.Float64()
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
//
//summarylint:ignore shared by the tests of internal/core, internal/estimator, internal/sampling, internal/server and bench_test.go
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("randx: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Pareto returns a Pareto(scale, alpha) sample: scale * U^(-1/alpha).
func (r *RNG) Pareto(scale, alpha float64) float64 {
	return scale * math.Pow(r.float64Pos(), -1/alpha)
}

// Perm returns a random permutation of [0, n).
//
//summarylint:ignore shared by the tests of internal/core, internal/engine and internal/sampling
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
