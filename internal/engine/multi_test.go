package engine

import (
	"errors"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/randx"
	"repro/internal/sampling"
	"repro/internal/xhash"
)

// multiStream builds a combined r-instance stream over a shared key
// universe with partial overlap: every key appears in a random subset of
// the instances, at most once per instance.
func multiStream(rng *randx.RNG, r, keys int) []MultiPair {
	out := make([]MultiPair, 0, r*keys)
	for k := 0; k < keys; k++ {
		h := dataset.Key(rng.Uint64())
		for i := 0; i < r; i++ {
			if rng.Float64() < 0.7 {
				out = append(out, MultiPair{Key: h, Instance: i, Value: float64(1 + rng.Intn(1000))})
			}
		}
	}
	shuffled := make([]MultiPair, len(out))
	for i, j := range rng.Perm(len(out)) {
		shuffled[i] = out[j]
	}
	return shuffled
}

// seedModes returns the two joint distributions of the tentpole contract:
// one SeedFunc shared by every instance (coordinated samples, a single
// hash per key) and per-instance seeds (independent samples). The engine
// is seed-agnostic, so it must honour both.
func seedModes(salt uint64) map[string]func(int) sampling.SeedFunc {
	indep := xhash.Seeder{Salt: salt}
	return map[string]func(int) sampling.SeedFunc{
		"coordinated": func(int) sampling.SeedFunc {
			return func(h dataset.Key) float64 { return xhash.Unit(xhash.Hash2(salt, uint64(h))) }
		},
		"independent": func(i int) sampling.SeedFunc {
			return func(h dataset.Key) float64 { return indep.Seed(i, uint64(h)) }
		},
	}
}

// TestMultiBottomKMatchesIndependentPasses is the one-pass contract: a
// MultiBottomK fed the combined interleaved stream must produce, per
// instance, exactly the summary of an independent sequential pass over
// that instance's pairs alone — for shared and per-instance seeds, across
// shard counts and sync/async modes.
func TestMultiBottomKMatchesIndependentPasses(t *testing.T) {
	const r, k = 3, 24
	rng := randx.New(61)
	stream := multiStream(rng, r, 600)
	for mode, seeds := range seedModes(417) {
		want := make([]*sampling.WeightedSample, r)
		for i := 0; i < r; i++ {
			ref := sampling.NewStreamBottomK(k, sampling.PPS{}, seeds(i))
			for _, m := range stream {
				if m.Instance == i {
					ref.Push(m.Key, m.Value)
				}
			}
			want[i] = ref.Snapshot()
		}
		for _, shards := range []int{1, 2, 4} {
			for _, async := range []bool{false, true} {
				cfg := Config{Parallel: shards > 1, Shards: shards, BatchSize: 64, Async: async, QueueDepth: 2}
				e := NewMultiBottomK(r, k, sampling.PPS{}, seeds, cfg)
				e.PushBatch(stream)
				got := e.Close()
				for i := 0; i < r; i++ {
					label := mode + "/shards=" + strconv.Itoa(shards) +
						"/async=" + strconv.FormatBool(async) + "/instance=" + strconv.Itoa(i)
					sameSample(t, got[i], want[i], label)
				}
			}
		}
	}
}

// TestMultiPoissonPPSMatchesIndependentPasses: the same contract for the
// Poisson PPS pipeline, with per-instance thresholds.
func TestMultiPoissonPPSMatchesIndependentPasses(t *testing.T) {
	const r = 3
	taus := []float64{40, 90, 250}
	rng := randx.New(62)
	stream := multiStream(rng, r, 800)
	for mode, seeds := range seedModes(901) {
		want := make([]*sampling.WeightedSample, r)
		for i := 0; i < r; i++ {
			ref := sampling.NewStreamPoissonPPS(taus[i], seeds(i))
			for _, m := range stream {
				if m.Instance == i {
					ref.Push(m.Key, m.Value)
				}
			}
			want[i] = ref.Snapshot()
		}
		for _, shards := range []int{1, 2, 4} {
			for _, async := range []bool{false, true} {
				cfg := Config{Parallel: shards > 1, Shards: shards, BatchSize: 32, Async: async, QueueDepth: 3}
				e := NewMultiPoissonPPS(taus, seeds, cfg)
				e.PushBatch(stream)
				got := e.Close()
				for i := 0; i < r; i++ {
					label := mode + "/shards=" + strconv.Itoa(shards) +
						"/async=" + strconv.FormatBool(async) + "/instance=" + strconv.Itoa(i)
					sameSample(t, got[i], want[i], label)
				}
			}
		}
	}
}

// TestSummarizeMultiEntryPoints: the materialized one-pass entry points
// equal their r independent single-instance counterparts bit for bit.
func TestSummarizeMultiEntryPoints(t *testing.T) {
	const r, k = 3, 16
	rng := randx.New(63)
	ins := make([]dataset.Instance, r)
	for i := range ins {
		ins[i] = make(dataset.Instance, 400)
		for j := 0; j < 400; j++ {
			ins[i][dataset.Key(rng.Intn(900)+1)] = float64(1 + rng.Intn(500))
		}
	}
	taus := []float64{25, 60, 140}
	cfg := Config{Parallel: true, Shards: 4, BatchSize: 16, Async: true}
	for mode, seeds := range seedModes(5150) {
		gotB := SummarizeMultiBottomK(ins, k, sampling.EXP{}, seeds, cfg)
		gotP := SummarizeMultiPoissonPPS(ins, taus, seeds, cfg)
		for i := 0; i < r; i++ {
			wantB := SummarizeBottomK(ins[i], k, sampling.EXP{}, seeds(i), Config{})
			wantP := SummarizePoissonPPS(ins[i], taus[i], seeds(i), Config{})
			sameSample(t, gotB[i], wantB, mode+"/bottomk/instance="+strconv.Itoa(i))
			sameSample(t, gotP[i], wantP, mode+"/pps/instance="+strconv.Itoa(i))
		}
	}
}

func TestMultiPushValidation(t *testing.T) {
	seeds := seedModes(7)["independent"]
	e := NewMultiBottomK(2, 4, sampling.PPS{}, seeds, Config{})
	defer e.Close()
	mustPanic(t, func() { e.Push(-1, 1, 1) })
	mustPanic(t, func() { e.Push(2, 1, 1) })
	p := NewMultiPoissonPPS([]float64{5, 5}, seeds, Config{})
	defer p.Close()
	mustPanic(t, func() { p.Push(2, 1, 1) })
	mustPanic(t, func() { NewMultiBottomK(0, 4, sampling.PPS{}, seeds, Config{}) })
	mustPanic(t, func() { NewMultiPoissonPPS(nil, seeds, Config{}) })
}

func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		cfg   Config
		field string
	}{
		{Config{Shards: -1}, "Shards"},
		{Config{BatchSize: -7}, "BatchSize"},
		{Config{QueueDepth: -2}, "QueueDepth"},
	} {
		err := tc.cfg.Validate()
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("Validate(%+v) = %v, want *ConfigError", tc.cfg, err)
		}
		if ce.Field != tc.field {
			t.Errorf("Validate(%+v) flagged %s, want %s", tc.cfg, ce.Field, tc.field)
		}
	}
	for _, cfg := range []Config{{}, {Parallel: true}, {Async: true, QueueDepth: 4}, {Shards: 8, BatchSize: 1}} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}
	// Constructors enforce the same rule by panicking.
	seed := func(dataset.Key) float64 { return 0.5 }
	mustPanic(t, func() { NewBottomK(4, sampling.PPS{}, seed, Config{Shards: -1}) })
	mustPanic(t, func() { NewPoissonPPS(10, seed, Config{BatchSize: -1}) })
}

// TestAsyncDrainAndStats: async Close drains to the same bits as the
// sequential pass through a one-batch queue, and the producer-side
// counter accounts for every pair.
func TestAsyncDrainAndStats(t *testing.T) {
	seeder := xhash.Seeder{Salt: 99}
	seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
	rng := randx.New(5)
	stream := randomStream(rng, 5000)
	ref := sampling.NewStreamBottomK(64, sampling.PPS{}, seed)
	for _, p := range stream {
		ref.Push(p.Key, p.Value)
	}
	for _, shards := range []int{1, 3} {
		cfg := Config{Parallel: shards > 1, Shards: shards, BatchSize: 8, Async: true, QueueDepth: 1}
		e := NewBottomK(64, sampling.PPS{}, seed, cfg)
		e.PushBatch(stream)
		st := e.Stats()
		if st.Pairs != uint64(len(stream)) {
			t.Errorf("shards=%d: Stats.Pairs = %d, want %d", shards, st.Pairs, len(stream))
		}
		sameSample(t, e.Close(), ref.Snapshot(), "async drain shards="+strconv.Itoa(shards))
	}
	// The inline sequential path counts pairs and never stalls.
	seq := NewBottomK(4, sampling.PPS{}, seed, Config{})
	seq.Push(1, 2)
	if st := seq.Stats(); st.Pairs != 1 || st.Stalls != 0 {
		t.Errorf("sequential Stats = %+v", st)
	}
	seq.Close()
}
