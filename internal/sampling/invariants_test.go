package sampling

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/randx"
	"repro/internal/xhash"
)

// Property-based invariant tests (testing/quick) for the sampling
// substrates: the structural guarantees every estimator in this repository
// leans on.

// TestQuickStreamEqualsReference: the streaming bottom-k sampler agrees
// with the sample by definition for every random instance and arrival
// order.
func TestQuickStreamEqualsReference(t *testing.T) {
	f := func(salt uint64, weights []uint8, order uint64) bool {
		in := dataset.Instance{}
		for i, w := range weights {
			if len(in) >= 40 {
				break
			}
			in[dataset.Key(i+1)] = 1 + float64(w%19)
		}
		seeder := xhash.Seeder{Salt: salt}
		seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
		s := NewStreamBottomK(7, PPS{}, seed)
		pushed(in, randx.New(order).Perm(len(in)), s.Push)
		return sameSample(s.Snapshot(), bottomKRef(in, 7, PPS{}, seed))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickBottomKRankBound: every sampled key's rank is strictly below
// the conditioning threshold, and the threshold is the (k+1)-st smallest.
func TestQuickBottomKRankBound(t *testing.T) {
	f := func(salt uint64, weights []uint8) bool {
		in := dataset.Instance{}
		for i, w := range weights {
			if len(in) >= 50 {
				break
			}
			in[dataset.Key(i+1)] = 1 + float64(w%29)
		}
		seeder := xhash.Seeder{Salt: salt}
		seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
		st := NewStreamBottomK(5, EXP{}, seed)
		for h, v := range in {
			st.Push(h, v)
		}
		s := st.Snapshot()
		below := 0
		for h, v := range in {
			r := (EXP{}).Rank(seed(h), v)
			if r < s.Tau {
				below++
			}
			_, sampled := lookup(s, h)
			if sampled != (r < s.Tau) {
				return false
			}
		}
		return math.IsInf(s.Tau, 1) || below == 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickPPSSampleValueFidelity: sampled values are reported exactly and
// only keys meeting the threshold rule are present.
func TestQuickPPSSampleValueFidelity(t *testing.T) {
	f := func(salt uint64, weights []uint8, tauRaw uint8) bool {
		in := dataset.Instance{}
		for i, w := range weights {
			if len(in) >= 50 {
				break
			}
			in[dataset.Key(i+1)] = float64(w % 31) // zeros allowed
		}
		tau := 1 + float64(tauRaw%50)
		seeder := xhash.Seeder{Salt: salt}
		seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
		st := NewStreamPoissonPPS(tau, seed)
		for h, v := range in {
			st.Push(h, v)
		}
		s := st.Snapshot()
		for h, v := range in {
			want := v > 0 && v >= seed(h)*tau
			got, ok := lookup(s, h)
			if ok != want {
				return false
			}
			if ok && got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// lookup binary-searches a sample's ascending entries for key h.
func lookup(s *WeightedSample, h dataset.Key) (float64, bool) {
	i, ok := slices.BinarySearchFunc(s.Entries, h, func(e Pair, h dataset.Key) int { return cmp.Compare(e.Key, h) })
	if !ok {
		return 0, false
	}
	return s.Entries[i].Value, true
}
