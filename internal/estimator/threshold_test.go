package estimator

import (
	"math"
	"testing"

	"repro/internal/randx"
	"repro/internal/sampling"
)

func TestThresholdFamilies(t *testing.T) {
	pps := PPSThreshold{TauStar: 10}
	if got := pps.At(0.5); got != 5 {
		t.Errorf("PPS At(0.5) = %v", got)
	}
	if got := pps.InclusionProb(2); got != 0.2 {
		t.Errorf("PPS InclusionProb(2) = %v", got)
	}
	if got := pps.InclusionProb(20); got != 1 {
		t.Errorf("PPS InclusionProb(20) = %v", got)
	}
	exp := EXPThreshold{RankTau: 0.5}
	// v ≥ τ(u) ⟺ 1 − e^{−v·r*} ≥ u, so inclusion prob matches the EXP
	// rank family.
	if got, want := exp.InclusionProb(3), 1-math.Exp(-1.5); math.Abs(got-want) > 1e-12 {
		t.Errorf("EXP InclusionProb(3) = %v, want %v", got, want)
	}
	// τ is increasing in u for both families.
	for _, th := range []Threshold{pps, exp} {
		prev := -1.0
		for _, u := range []float64{0, 0.2, 0.5, 0.9, 0.999} {
			cur := th.At(u)
			if cur < prev {
				t.Errorf("threshold not monotone at u=%v", u)
			}
			prev = cur
		}
	}
}

// TestSampleWeightedConsistency: the sampling rule agrees with the
// threshold's inclusion probability empirically.
func TestSampleWeightedConsistency(t *testing.T) {
	rng := randx.New(3)
	for _, th := range []Threshold{PPSThreshold{TauStar: 8}, EXPThreshold{RankTau: 0.3}} {
		for _, v := range []float64{0.5, 2, 10} {
			const n = 200000
			hits := 0
			for i := 0; i < n; i++ {
				o := SampleWeighted([]float64{v}, []float64{rng.Float64()}, []Threshold{th})
				if o.Sampled[0] {
					hits++
				}
			}
			want := th.InclusionProb(v)
			if got := float64(hits) / n; math.Abs(got-want) > 0.005 {
				t.Errorf("%T v=%v: empirical %v, want %v", th, v, got, want)
			}
		}
	}
}

// TestMaxHTWeightedUnbiased: Monte Carlo unbiasedness of the generalized
// HT max estimator for mixed threshold families (one PPS entry, one EXP
// entry) — the §2 general model in action.
func TestMaxHTWeightedUnbiased(t *testing.T) {
	th := []Threshold{PPSThreshold{TauStar: 12}, EXPThreshold{RankTau: 0.15}}
	rng := randx.New(31)
	for _, v := range [][]float64{{5, 3}, {10, 1}, {2, 8}, {4, 4}, {6, 0}} {
		const n = 500000
		var sumMax, sumMin float64
		for i := 0; i < n; i++ {
			o := SampleWeighted(v, []float64{rng.Float64(), rng.Float64()}, th)
			sumMax += MaxHTWeighted(o)
			sumMin += MinHTWeighted(o)
		}
		wantMax := math.Max(v[0], v[1])
		if got := sumMax / n; math.Abs(got-wantMax)/wantMax > 0.03 {
			t.Errorf("v=%v: MaxHTWeighted mean %v, want %v", v, got, wantMax)
		}
		wantMin := math.Min(v[0], v[1])
		got := sumMin / n
		if wantMin == 0 {
			if got != 0 {
				t.Errorf("v=%v: MinHTWeighted mean %v, want 0", v, got)
			}
		} else if math.Abs(got-wantMin)/wantMin > 0.03 {
			t.Errorf("v=%v: MinHTWeighted mean %v, want %v", v, got, wantMin)
		}
	}
}

// TestMaxHTWeightedMatchesPPS: with PPS thresholds the generalized
// estimator coincides with MaxHTPPS on every outcome.
func TestMaxHTWeightedMatchesPPS(t *testing.T) {
	tau := []float64{10, 5}
	th := []Threshold{PPSThreshold{TauStar: 10}, PPSThreshold{TauStar: 5}}
	rng := randx.New(77)
	for i := 0; i < 20000; i++ {
		v := []float64{rng.Float64() * 15, rng.Float64() * 15}
		u := []float64{rng.Float64(), rng.Float64()}
		a := MaxHTPPS(SamplePPS(v, u, tau))
		b := MaxHTWeighted(SampleWeighted(v, u, th))
		if !approxEq(a, b, 1e-12) {
			t.Fatalf("v=%v u=%v: PPS %v vs weighted %v", v, u, a, b)
		}
	}
}

// TestMaxHTWeightedSupport: the estimate is positive iff the outcome
// determines the max.
func TestMaxHTWeightedSupport(t *testing.T) {
	th := []Threshold{EXPThreshold{RankTau: 0.2}, EXPThreshold{RankTau: 0.2}}
	rng := randx.New(41)
	for i := 0; i < 20000; i++ {
		v := []float64{rng.Float64() * 10, rng.Float64() * 10}
		u := []float64{rng.Float64(), rng.Float64()}
		o := SampleWeighted(v, u, th)
		est := MaxHTWeighted(o)
		m := o.MaxSampled()
		determined := m > 0
		for j := 0; j < 2; j++ {
			if !o.Sampled[j] && o.Thresholds[j].At(o.U[j]) > m {
				determined = false
			}
		}
		if determined != (est > 0) {
			t.Fatalf("v=%v u=%v: determined=%v est=%v", v, u, determined, est)
		}
	}
}

// The general weighted-sampling model of §2: entry i is sampled iff
// v_i ≥ τ_i(u_i) for a non-decreasing threshold function τ_i and uniform
// seed u_i. PPS is τ(u) = u·τ*; EXP-rank Poisson sampling is
// τ(u) = −ln(1−u)/r* for rank threshold r*. With known seeds, an
// unsampled entry reveals the upper bound v_i < τ_i(u_i), and the
// inclusion probability of a value v is PR[v ≥ τ(U)] = sup{u : v ≥ τ(u)}.

// Threshold describes one entry's sampling rule in the general weighted
// model.
type Threshold interface {
	// At returns τ(u), the value threshold at seed u.
	At(u float64) float64
	// InclusionProb returns PR[v ≥ τ(U)] for uniform U.
	InclusionProb(v float64) float64
}

// PPSThreshold is τ(u) = u·TauStar (inclusion probability min{1, v/τ*}).
type PPSThreshold struct{ TauStar float64 }

// At implements Threshold.
func (t PPSThreshold) At(u float64) float64 { return u * t.TauStar }

// InclusionProb implements Threshold.
func (t PPSThreshold) InclusionProb(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Min(1, v/t.TauStar)
}

// EXPThreshold is τ(u) = −ln(1−u)/RankTau — Poisson sampling with
// exponential ranks below RankTau (inclusion probability 1 − e^{−v·r*}).
type EXPThreshold struct{ RankTau float64 }

// At implements Threshold.
func (t EXPThreshold) At(u float64) float64 {
	return -math.Log1p(-u) / t.RankTau
}

// InclusionProb implements Threshold.
func (t EXPThreshold) InclusionProb(v float64) float64 {
	return sampling.EXP{}.InclusionProb(v, t.RankTau)
}

// WeightedOutcome is the outcome of independent weighted sampling with
// known seeds under arbitrary thresholds.
type WeightedOutcome struct {
	// Thresholds holds the per-entry sampling rules.
	Thresholds []Threshold
	// U holds the known seeds.
	U []float64
	// Sampled marks sampled entries; Values holds their exact values.
	Sampled []bool
	Values  []float64
}

// R returns the number of entries.
func (o WeightedOutcome) R() int { return len(o.Thresholds) }

// MaxSampled returns the maximum sampled value (0 when S is empty).
func (o WeightedOutcome) MaxSampled() float64 {
	m := 0.0
	for i, s := range o.Sampled {
		if s && o.Values[i] > m {
			m = o.Values[i]
		}
	}
	return m
}

// SampleWeighted materializes the outcome for data v under thresholds and
// seeds.
func SampleWeighted(v, u []float64, th []Threshold) WeightedOutcome {
	r := len(v)
	o := WeightedOutcome{Thresholds: th, U: u, Sampled: make([]bool, r), Values: make([]float64, r)}
	for i := 0; i < r; i++ {
		if v[i] > 0 && v[i] >= th[i].At(u[i]) {
			o.Sampled[i] = true
			o.Values[i] = v[i]
		}
	}
	return o
}

// MaxHTWeighted generalizes MaxHTPPS to arbitrary threshold families
// (§5.2 with the §2 general model): the estimate is positive exactly when
// every unsampled entry's revealed bound τ_i(u_i) is at most the maximum
// sampled value — the outcome then determines max(v) — and equals
// max / Π_i PR[max ≥ τ_i(U)].
func MaxHTWeighted(o WeightedOutcome) float64 {
	m := o.MaxSampled()
	if m <= 0 {
		return 0
	}
	for i, s := range o.Sampled {
		if !s && o.Thresholds[i].At(o.U[i]) > m {
			return 0
		}
	}
	p := 1.0
	for _, th := range o.Thresholds {
		p *= th.InclusionProb(m)
	}
	if p <= 0 {
		return 0
	}
	return m / p
}

// MinHTWeighted is the inverse-probability estimator of min(v) in the
// general model: positive only when every entry is sampled, which is the
// only outcome class that determines the minimum.
func MinHTWeighted(o WeightedOutcome) float64 {
	mn := math.Inf(1)
	p := 1.0
	for i, s := range o.Sampled {
		if !s {
			return 0
		}
		if o.Values[i] < mn {
			mn = o.Values[i]
		}
	}
	for i, th := range o.Thresholds {
		p *= th.InclusionProb(o.Values[i])
	}
	if p <= 0 || math.IsInf(mn, 1) {
		return 0
	}
	return mn / p
}
