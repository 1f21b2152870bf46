package sampling

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/randx"
	"repro/internal/xhash"
)

// guardedSampler is what a producer that tests arrivals against the
// certain-reject bound before pushing them sees of a sampler.
type guardedSampler interface {
	Push(key dataset.Key, v float64)
	TauGuard() float64
	Snapshot() *WeightedSample
}

// TestTauGuardIsSound holds the samplers' certain-reject bound to the use
// the raw-ingest scanner makes of it: a pair (key, v) with seed(key) ≥ g·hi,
// for any hi ≥ v and a bound g read now or any number of arrivals earlier,
// leaves the sampler bit for bit as it was, and has an exact rank at or
// above the sampler's threshold — so a bound a shade low, which the
// sampler's own Push would never contradict, fails too. Bottom-k with PPS
// and EXP ranks is probed before, at and after its fill, Poisson PPS
// throughout. The bound never increases, and a bottom-k sampler has none
// (NaN) until it is full.
func TestTauGuardIsSound(t *testing.T) {
	seeder := xhash.Seeder{Salt: 2011}
	seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
	const k = 32
	bottomK := func(s *StreamBottomK) func() []uint64 {
		return func() []uint64 {
			var bits []uint64
			for _, e := range s.Entries() {
				bits = append(bits, uint64(e.Key), math.Float64bits(e.Rank), math.Float64bits(e.Value))
			}
			return append(bits, math.Float64bits(s.Snapshot().Tau))
		}
	}
	pps, exp := NewStreamBottomK(k, PPS{}, seed), NewStreamBottomK(k, EXP{}, seed)
	poisson := NewStreamPoissonPPS(400, seed)
	cases := []struct {
		name  string
		s     guardedSampler
		fam   RankFamily
		state func() []uint64
		fills bool // NaN bound until k+1 arrivals are kept
	}{
		{"bottom-k pps", pps, PPS{}, bottomK(pps), true},
		{"bottom-k exp", exp, EXP{}, bottomK(exp), true},
		{"poisson pps", poisson, PPS{}, func() []uint64 {
			snap := poisson.Snapshot()
			var bits []uint64
			for _, e := range snap.Entries {
				bits = append(bits, uint64(e.Key), math.Float64bits(e.Value))
			}
			return append(bits, math.Float64bits(snap.Tau))
		}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := randx.New(31)
			var bounds []float64 // every bound read so far, oldest first
			probed := 0
			for arrival := 0; arrival < 4000; arrival++ {
				g := c.s.TauGuard()
				if full := !c.fills || arrival > k; math.IsNaN(g) == full {
					t.Fatalf("arrival %d: bound %v, want NaN exactly until the sampler is full", arrival, g)
				}
				if n := len(bounds); n > 0 && !math.IsNaN(bounds[n-1]) && !(g <= bounds[n-1]) {
					t.Fatalf("arrival %d: bound rose from %v to %v", arrival, bounds[n-1], g)
				}
				bounds = append(bounds, g)
				// Probe with the current bound and with older ones, around
				// the fill and then now and again.
				if arrival <= 2*k || arrival%97 == 0 {
					for _, back := range []int{0, 1, 10, 300} {
						if back >= len(bounds) {
							continue
						}
						probed += probeGuard(t, c.s, c.fam, c.state, seed, bounds[len(bounds)-1-back], rng)
					}
				}
				c.s.Push(dataset.Key(rng.Uint64()), math.Floor(1+rng.Pareto(1, 1.2)))
			}
			if probed < 1000 {
				t.Fatalf("only %d probes passed the bound: the test proves little", probed)
			}
		})
	}
}

// probeGuard pushes pairs the bound g rejects into s, and fails t unless
// each has an exact rank (fam's) at or above the threshold of s and leaves
// state as it was. Most are built to sit at the bound's edge: seed(key)
// within rounding of g·hi — hi the largest float64 with seed(key) ≥ g·hi —
// and v at, just below or well below hi. It returns how many it pushed.
func probeGuard(t *testing.T, s guardedSampler, fam RankFamily, state func() []uint64, seed SeedFunc, g float64, rng *randx.RNG) int {
	t.Helper()
	pushed := 0
	for i := 0; i < 8; i++ {
		key := dataset.Key(rng.Uint64())
		u := seed(key)
		hi := u / g // g·hi ≈ u: the edge
		for up := math.Nextafter(hi, math.Inf(1)); u >= g*up; up = math.Nextafter(up, math.Inf(1)) {
			hi = up
		}
		if i%4 == 3 {
			hi = math.Floor(1 + rng.Pareto(1, 1.2)) // far from it, either side
		}
		if u >= g*hi && !math.IsInf(hi, 0) {
			if tau := s.Snapshot().Tau; !(fam.Rank(u, hi) >= tau) {
				t.Fatalf("bound %v rejects key %d (seed %v) with value %v, whose rank %v is below the threshold %v",
					g, key, u, hi, fam.Rank(u, hi), tau)
			}
		}
		for _, v := range []float64{hi, math.Nextafter(hi, 0), hi * (1 - 1e-9), hi / 2, 0} {
			if !(u >= g*hi) || math.IsInf(hi, 0) {
				continue
			}
			before := state()
			s.Push(key, v)
			if after := state(); !slices.Equal(before, after) {
				t.Fatalf("bound %v: pushing key %d (seed %v) with value %v ≤ hi %v changed the sampler", g, key, u, v, hi)
			}
			pushed++
		}
	}
	return pushed
}

// TestGuardBandArrivals feeds each sampler, once it is full, arrivals
// built to rank just under its current threshold — in [(1 − 10⁻⁶)τ, τ),
// where only the exact rank comparison tells them from a reject — and
// holds the sample to the one by definition. A certain-reject bound a
// millionth too low throws these arrivals away; random streams land one
// there about once in a million arrivals.
func TestGuardBandArrivals(t *testing.T) {
	seeder := xhash.Seeder{Salt: 4099}
	seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
	const k, arrivals = 64, 3000
	// valueFor returns the value that gives key rank r under fam.
	valueFor := func(fam RankFamily, key dataset.Key, r float64) float64 {
		if _, ok := fam.(EXP); ok {
			return -math.Log1p(-seed(key)) / r
		}
		return seed(key) / r
	}
	cases := []struct {
		name string
		s    guardedSampler
		fam  RankFamily
		ref  func(in dataset.Instance) *WeightedSample
	}{
		{"bottom-k pps", NewStreamBottomK(k, PPS{}, seed), PPS{}, func(in dataset.Instance) *WeightedSample { return bottomKRef(in, k, PPS{}, seed) }},
		{"bottom-k exp", NewStreamBottomK(k, EXP{}, seed), EXP{}, func(in dataset.Instance) *WeightedSample { return bottomKRef(in, k, EXP{}, seed) }},
		{"poisson pps", NewStreamPoissonPPS(300, seed), PPS{}, func(in dataset.Instance) *WeightedSample { return poissonPPSRef(in, 300, seed) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := randx.New(7)
			in := dataset.Instance{}
			push := func(key dataset.Key, v float64) {
				if _, dup := in[key]; !dup {
					in[key] = v
					c.s.Push(key, v)
				}
			}
			for len(in) < 4*k {
				push(dataset.Key(rng.Uint64()), math.Floor(1+rng.Pareto(1, 1.2)))
			}
			inBand := 0
			for range arrivals {
				tau := c.s.Snapshot().Tau
				key := dataset.Key(rng.Uint64())
				v := valueFor(c.fam, key, tau*(1-1e-6*(0.001+0.998*rng.Float64())))
				if r := c.fam.Rank(seed(key), v); !(r >= tau*(1-1e-6) && r < tau) || math.IsInf(v, 0) {
					continue
				}
				push(key, v)
				inBand++
			}
			if inBand < arrivals/2 {
				t.Fatalf("only %d of %d arrivals landed in the band: the test proves little", inBand, arrivals)
			}
			if got, want := c.s.Snapshot(), c.ref(in); !sameSample(got, want) {
				t.Fatalf("after %d arrivals in the guard band: sample of %d entries (tau %v), want %d (tau %v)",
					inBand, len(got.Entries), got.Tau, len(want.Entries), want.Tau)
			}
		})
	}
}
