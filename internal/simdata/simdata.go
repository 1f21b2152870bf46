// Package simdata generates the synthetic workloads used by examples,
// experiments and benchmarks.
//
// The flagship generator is the IP-traffic substitute for §8.2.
//
// Substitution S1: §8.2's IP-flow workload is synthetic, calibrated to the
// published statistics. The paper's evaluation uses proprietary hourly flow
// logs, so we synthesize two correlated heavy-tailed instances calibrated
// to the published marginals (per-hour distinct destinations, union size,
// flows per hour, and the sum of per-key maxima); TestPaperTrafficCalibration
// holds PaperTraffic to them.
package simdata

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/randx"
)

// TrafficConfig parameterizes a two-instance traffic-like workload.
type TrafficConfig struct {
	// SharedKeys is the number of keys active in both instances.
	SharedKeys int
	// Only1 and Only2 are keys active in exactly one instance.
	Only1, Only2 int
	// Alpha is the Pareto tail exponent of the per-key value distribution
	// (smaller = heavier tail). Typical traffic: 1.1–1.5.
	Alpha float64
	// MeanValue is the approximate mean per-key value (flow count).
	MeanValue float64
	// SharedMean, when positive, overrides MeanValue for shared keys, and
	// UniqueMean for single-instance keys. Real traffic concentrates
	// volume on stable (shared) destinations; the §8.2 statistics imply
	// exactly that (the published Σmax is inconsistent with uniform value
	// allocation across shared and unique keys).
	SharedMean, UniqueMean float64
	// Jitter controls cross-hour variation of a shared key's value:
	// v2 = v1 · exp(Jitter·(U−U')) for independent uniforms. 0 means
	// identical values; ~1 gives the mild hour-over-hour churn of traffic
	// data.
	Jitter float64
	// Seed drives all randomness deterministically.
	Seed uint64
}

// PaperTraffic returns the configuration calibrated to the §8.2 statistics:
// about 2.45·10⁴ distinct destinations per hour, 3.8·10⁴ distinct in the
// union, ≈5.5·10⁵ flows per hour, and Σ max ≈ 7.47·10⁵.
func PaperTraffic() TrafficConfig {
	return TrafficConfig{
		SharedKeys: 11000,
		Only1:      13500,
		Only2:      13500,
		Alpha:      1.25,
		MeanValue:  22.4, // 5.5e5 flows / 2.45e4 keys
		SharedMean: 46,   // stable destinations carry most volume
		UniqueMean: 7.5,  // churned destinations are light
		Jitter:     0.9,
		Seed:       0x9a2d,
	}
}

// ScaledTraffic returns PaperTraffic shrunk by the given factor (key counts
// divided by factor), preserving the value distribution; used to keep
// benchmarks fast while retaining the workload's shape.
func ScaledTraffic(factor int) TrafficConfig {
	c := PaperTraffic()
	c.SharedKeys /= factor
	c.Only1 /= factor
	c.Only2 /= factor
	return c
}

// Generate materializes the two-instance matrix. Keys are assigned
// sequentially: shared keys first, then instance-1-only, then
// instance-2-only.
func Generate(cfg TrafficConfig) *dataset.Matrix {
	rng := randx.New(cfg.Seed)
	in1 := make(dataset.Instance, cfg.SharedKeys+cfg.Only1)
	in2 := make(dataset.Instance, cfg.SharedKeys+cfg.Only2)
	// A Pareto with tail alpha and scale s has mean s·alpha/(alpha−1);
	// solve the scale for the requested mean.
	draw := func(mean float64) float64 {
		if mean <= 0 {
			mean = cfg.MeanValue
		}
		scale := mean * (cfg.Alpha - 1) / cfg.Alpha
		v := math.Floor(rng.Pareto(scale, cfg.Alpha))
		if v < 1 {
			v = 1
		}
		return v
	}
	key := dataset.Key(1)
	for i := 0; i < cfg.SharedKeys; i++ {
		v1 := draw(cfg.SharedMean)
		v2 := v1
		if cfg.Jitter > 0 {
			v2 = math.Floor(v1 * math.Exp(cfg.Jitter*(rng.Float64()-rng.Float64())))
			if v2 < 1 {
				v2 = 1
			}
		}
		in1[key], in2[key] = v1, v2
		key++
	}
	for i := 0; i < cfg.Only1; i++ {
		in1[key] = draw(cfg.UniqueMean)
		key++
	}
	for i := 0; i < cfg.Only2; i++ {
		in2[key] = draw(cfg.UniqueMean)
		key++
	}
	return dataset.NewMatrix(in1, in2)
}

// RequestLog generates a multi-instance request-log workload for the
// distinct-count example: numInstances periods over a key universe of size
// universe, where each key is active in a period with probability activity
// and activity is positively correlated across periods through a per-key
// popularity score.
func RequestLog(universe, numInstances int, activity float64, seed uint64) []map[dataset.Key]bool {
	rng := randx.New(seed)
	popularity := make([]float64, universe)
	for i := range popularity {
		popularity[i] = rng.Float64()
	}
	out := make([]map[dataset.Key]bool, numInstances)
	for t := range out {
		set := make(map[dataset.Key]bool)
		for i := 0; i < universe; i++ {
			// Mixture: half the activity mass follows the stable per-key
			// popularity, half is fresh per period.
			pr := activity * (popularity[i] + rng.Float64())
			if rng.Float64() < pr {
				set[dataset.Key(i+1)] = true
			}
		}
		out[t] = set
	}
	return out
}

// SensorSnapshots generates r instances of slowly drifting sensor readings
// over the given number of keys, for the change-detection example. Values
// follow a bounded random walk so consecutive instances are similar.
func SensorSnapshots(keys, r int, drift float64, seed uint64) *dataset.Matrix {
	rng := randx.New(seed)
	instances := make([]dataset.Instance, r)
	cur := make([]float64, keys)
	for i := range cur {
		cur[i] = 10 + 90*rng.Float64()
	}
	for t := 0; t < r; t++ {
		in := make(dataset.Instance, keys)
		for i := 0; i < keys; i++ {
			if t > 0 {
				cur[i] *= math.Exp(drift * (rng.Float64() - 0.5))
				if cur[i] < 1 {
					cur[i] = 1
				}
			}
			in[dataset.Key(i+1)] = math.Floor(cur[i])
		}
		instances[t] = in
	}
	return dataset.NewMatrix(instances...)
}
