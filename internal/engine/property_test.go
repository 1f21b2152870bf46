package engine

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/randx"
	"repro/internal/sampling"
	"repro/internal/xhash"
)

// randomStream draws n pairs with sparse random keys (no duplicates) and
// heavy-tailed positive values, with an occasional zero value to exercise
// the never-sampled path.
func randomStream(rng *randx.RNG, n int) []Pair {
	seen := make(map[dataset.Key]bool, n)
	out := make([]Pair, 0, n)
	for len(out) < n {
		h := dataset.Key(rng.Uint64())
		if seen[h] {
			continue
		}
		seen[h] = true
		v := math.Floor(1 + rng.Pareto(1, 1.2))
		if rng.Float64() < 0.05 {
			v = 0
		}
		out = append(out, Pair{Key: h, Value: v})
	}
	return out
}

// sameSample asserts exact equality: entries (keys and value bits, in
// ascending key order) and threshold witness.
func sameSample(t *testing.T, got, want *sampling.WeightedSample, label string) {
	t.Helper()
	if got.Tau != want.Tau && !(math.IsInf(got.Tau, 1) && math.IsInf(want.Tau, 1)) {
		t.Fatalf("%s: tau %v, want %v", label, got.Tau, want.Tau)
	}
	if len(got.Entries) != len(want.Entries) {
		t.Fatalf("%s: size %d, want %d", label, len(got.Entries), len(want.Entries))
	}
	for i, e := range want.Entries {
		if g := got.Entries[i]; g.Key != e.Key || math.Float64bits(g.Value) != math.Float64bits(e.Value) {
			t.Fatalf("%s: entry %d is %+v, want %+v", label, i, g, e)
		}
	}
}

// TestBottomKMatchesSequential is the engine/sequential equivalence
// property: for random streams, arrival permutations, and shard counts
// {1, 2, 4, 7}, the engine's merged summary equals the sequential
// StreamBottomK snapshot exactly — same keys, same values, same threshold
// witness.
func TestBottomKMatchesSequential(t *testing.T) {
	seeder := xhash.Seeder{Salt: 20110613}
	for _, fam := range []sampling.RankFamily{sampling.PPS{}, sampling.EXP{}} {
		for trial, size := range []int{1, 5, 64, 500, 2000} {
			rng := randx.New(uint64(1000*trial) + 7)
			stream := randomStream(rng, size)
			for _, k := range []int{1, 16, 100} {
				seed := func(h dataset.Key) float64 { return seeder.Seed(trial, uint64(h)) }
				ref := sampling.NewStreamBottomK(k, fam, seed)
				for _, p := range stream {
					ref.Push(p.Key, p.Value)
				}
				want := ref.Snapshot()
				for _, shards := range []int{1, 2, 4, 7} {
					for perm := 0; perm < 3; perm++ {
						order := randx.New(uint64(perm)*31 + 1).Perm(len(stream))
						cfg := Config{Parallel: shards > 1, Shards: shards, BatchSize: 64}
						e := NewBottomK(k, fam, seed, cfg)
						for _, idx := range order {
							e.Push(stream[idx].Key, stream[idx].Value)
						}
						got := e.Close()
						label := fam.Name() + "/" +
							"size=" + strconv.Itoa(size) + "/k=" + strconv.Itoa(k) +
							"/shards=" + strconv.Itoa(shards) + "/perm=" + strconv.Itoa(perm)
						sameSample(t, got, want, label)
					}
				}
			}
		}
	}
}

// TestPoissonPPSMatchesSequential: the sharded Poisson pipeline equals the
// sequential StreamPoissonPPS filter for every shard count and permutation,
// in sync and async mode.
func TestPoissonPPSMatchesSequential(t *testing.T) {
	seeder := xhash.Seeder{Salt: 8812}
	rng := randx.New(3)
	stream := randomStream(rng, 1500)
	in := make(dataset.Instance, len(stream))
	for _, p := range stream {
		in[p.Key] = p.Value
	}
	tau := sampling.TauForExpectedSize(in, 120)
	seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
	ref := sampling.NewStreamPoissonPPS(tau, seed)
	for _, p := range stream {
		ref.Push(p.Key, p.Value)
	}
	want := ref.Snapshot()
	for _, shards := range []int{1, 2, 4, 7} {
		for _, async := range []bool{false, true} {
			for perm := 0; perm < 3; perm++ {
				order := randx.New(uint64(perm)*17 + 5).Perm(len(stream))
				cfg := Config{Parallel: shards > 1, Shards: shards, BatchSize: 128, Async: async}
				e := NewPoissonPPS(tau, seed, cfg)
				for _, idx := range order {
					e.Push(stream[idx].Key, stream[idx].Value)
				}
				got := e.Close()
				sameSample(t, got, want, "shards="+strconv.Itoa(shards)+"/async="+strconv.FormatBool(async)+"/perm="+strconv.Itoa(perm))
			}
		}
	}
}

// TestMergeBottomKDirect pins the merge primitive itself on a hand-built
// partition: the merged sample must match a full sequential pass even when
// shard loads are maximally skewed (one shard sees almost everything).
func TestMergeBottomKDirect(t *testing.T) {
	seeder := xhash.Seeder{Salt: 41}
	seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
	rng := randx.New(77)
	stream := randomStream(rng, 800)
	const k = 32
	ref := sampling.NewStreamBottomK(k, sampling.PPS{}, seed)
	skewA := sampling.NewStreamBottomK(k, sampling.PPS{}, seed)
	skewB := sampling.NewStreamBottomK(k, sampling.PPS{}, seed)
	for i, p := range stream {
		ref.Push(p.Key, p.Value)
		if i < 5 {
			skewB.Push(p.Key, p.Value)
		} else {
			skewA.Push(p.Key, p.Value)
		}
	}
	got := sampling.MergeBottomK(k, sampling.PPS{}, skewA.Entries(), skewB.Entries())
	sameSample(t, got, ref.Snapshot(), "skewed merge")
}
