package sampling

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/randx"
	"repro/internal/xhash"
)

// Property-based invariant tests (testing/quick) for the sampling
// substrates: the structural guarantees every estimator in this repository
// leans on.

// TestQuickStreamEqualsBatch: the streaming bottom-k sampler agrees with
// the batch construction for every random instance and arrival order.
func TestQuickStreamEqualsBatch(t *testing.T) {
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
		batch := BottomK(in, 7, PPS{}, seed)
		s := NewStreamBottomK(7, PPS{}, seed)
		keys := in.Keys()
		perm := randx.New(order).Perm(len(keys))
		for _, idx := range perm {
			s.Push(keys[idx], in[keys[idx]])
		}
		snap := s.Snapshot()
		if snap.Tau != batch.Tau || len(snap.Values) != len(batch.Values) {
			return false
		}
		for h, v := range batch.Values {
			if snap.Values[h] != v {
				return false
			}
		}
		return true
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
		s := BottomK(in, 5, EXP{}, seed)
		below := 0
		for h, v := range in {
			r := (EXP{}).Rank(seed(h), v)
			if r < s.Tau {
				below++
			}
			_, sampled := s.Values[h]
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
		s := PoissonPPS(in, tau, seed)
		for h, v := range in {
			want := v > 0 && v >= seed(h)*tau
			got, ok := s.Values[h]
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
