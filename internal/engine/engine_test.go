package engine

import (
	"errors"
	"math"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/randx"
	"repro/internal/sampling"
	"repro/internal/xhash"
)

func TestConfigDefaults(t *testing.T) {
	if got := (Config{}).NumShards(); got != 1 {
		t.Errorf("zero config shards = %d, want 1", got)
	}
	if got := (Config{Parallel: true}).NumShards(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("parallel auto shards = %d, want GOMAXPROCS", got)
	}
	if got := (Config{Parallel: true, Shards: 3}).NumShards(); got != 3 {
		t.Errorf("explicit shards = %d, want 3", got)
	}
	if got := (Config{Shards: 8}).NumShards(); got != 1 {
		t.Errorf("non-parallel config must stay sequential, got %d shards", got)
	}
	if got := (Config{}).effectiveBatchSize(); got != DefaultBatchSize {
		t.Errorf("default batch = %d", got)
	}
	if got := (Config{BatchSize: 17}).effectiveBatchSize(); got != 17 {
		t.Errorf("explicit batch = %d", got)
	}
}

func TestShardOfRange(t *testing.T) {
	rng := randx.New(1)
	for _, shards := range []int{1, 2, 3, 8} {
		counts := make([]int, shards)
		for i := 0; i < 4000; i++ {
			s := shardOf(dataset.Key(rng.Uint64()), shards)
			if s < 0 || s >= shards {
				t.Fatalf("shardOf out of range: %d of %d", s, shards)
			}
			counts[s]++
		}
		// Hash routing must not starve a shard on random keys.
		for i, c := range counts {
			if c == 0 {
				t.Errorf("shards=%d: shard %d received no keys", shards, i)
			}
		}
	}
}

func TestShardOfDeterministic(t *testing.T) {
	for i := 0; i < 100; i++ {
		h := dataset.Key(i * 7919)
		if shardOf(h, 4) != shardOf(h, 4) {
			t.Fatal("shardOf must be a pure function of the key")
		}
	}
}

func TestSummarizeBottomKInstance(t *testing.T) {
	seeder := xhash.Seeder{Salt: 5}
	seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
	rng := randx.New(9)
	in := make(dataset.Instance, 300)
	for k := dataset.Key(1); k <= 300; k++ {
		in[k] = math.Floor(1 + rng.Pareto(1, 1.3))
	}
	want := sampling.BottomK(in, 25, sampling.PPS{}, seed)
	for _, cfg := range []Config{{}, {Parallel: true, Shards: 4, BatchSize: 32}} {
		e := NewBottomK(25, sampling.PPS{}, seed, cfg)
		for h, v := range in {
			e.Push(h, v)
		}
		got := e.Close()
		if got.Tau != want.Tau {
			t.Fatalf("cfg %+v: tau %v, want %v", cfg, got.Tau, want.Tau)
		}
		for h, v := range want.Values {
			if got.Values[h] != v {
				t.Fatalf("cfg %+v: key %d mismatch", cfg, h)
			}
		}
		if len(got.Values) != len(want.Values) {
			t.Fatalf("cfg %+v: size %d, want %d", cfg, len(got.Values), len(want.Values))
		}
	}
}

func TestUndersizedStream(t *testing.T) {
	seeder := xhash.Seeder{Salt: 2}
	seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
	e := NewBottomK(100, sampling.PPS{}, seed, Config{Parallel: true, Shards: 4})
	e.Push(1, 2)
	e.Push(2, 3)
	s := e.Close()
	if !math.IsInf(s.Tau, 1) {
		t.Errorf("tau = %v, want +Inf for undersized stream", s.Tau)
	}
	if s.Len() != 2 || s.Values[1] != 2 || s.Values[2] != 3 {
		t.Errorf("undersized sample = %+v", s.Values)
	}
}

func TestEmptyStream(t *testing.T) {
	seed := func(dataset.Key) float64 { return 0.5 }
	for _, cfg := range []Config{{}, {Parallel: true, Shards: 3}} {
		s := NewBottomK(4, sampling.PPS{}, seed, cfg).Close()
		if s.Len() != 0 || !math.IsInf(s.Tau, 1) {
			t.Errorf("cfg %+v: empty close = len %d tau %v", cfg, s.Len(), s.Tau)
		}
		p := NewPoissonPPS(10, seed, cfg).Close()
		if p.Len() != 0 {
			t.Errorf("cfg %+v: empty poisson close = len %d", cfg, p.Len())
		}
	}
}

func TestUseAfterClosePanics(t *testing.T) {
	seed := func(dataset.Key) float64 { return 0.5 }
	for _, cfg := range []Config{{}, {Parallel: true, Shards: 2}} {
		e := NewBottomK(4, sampling.PPS{}, seed, cfg)
		e.Close()
		mustPanic(t, func() { e.Push(1, 1) })
		mustPanic(t, func() { e.Close() })
		p := NewPoissonPPS(10, seed, cfg)
		p.Close()
		mustPanic(t, func() { p.Push(1, 1) })
		mustPanic(t, func() { p.Close() })
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

// TestPushBatchMatchesPush: a stream offered in slices of any lengths —
// empty ones, single pairs, more than a shard batch — leaves every engine
// where offering it pair by pair does, under every execution strategy:
// same sample, same Stats().Pairs.
func TestPushBatchMatchesPush(t *testing.T) {
	rng := randx.New(15)
	stream := make([]Pair, 5000)
	for i := range stream {
		stream[i] = Pair{Key: dataset.Key(rng.Uint64()), Value: 1 + 99*rng.Float64()}
	}
	seed := func(h dataset.Key) float64 { return xhash.Seeder{Salt: 15}.Seed(0, uint64(h)) }
	slices := func(push func([]Pair)) {
		rest := stream
		for _, n := range []int{0, 1, 255, 256, 0, 257, 1500, 3} {
			push(rest[:n])
			rest = rest[n:]
		}
		push(rest)
	}
	for _, cfg := range []Config{
		{},
		{Parallel: true, Shards: 3, BatchSize: 100},
		{Async: true, BatchSize: 64, QueueDepth: 2},
		{Parallel: true, Shards: 2, Async: true},
	} {
		b1, b2 := NewBottomK(64, sampling.PPS{}, seed, cfg), NewBottomK(64, sampling.PPS{}, seed, cfg)
		p1, p2 := NewPoissonPPS(400, seed, cfg), NewPoissonPPS(400, seed, cfg)
		for _, p := range stream {
			b1.Push(p.Key, p.Value)
			p1.Push(p.Key, p.Value)
		}
		slices(b2.PushBatch)
		slices(p2.PushBatch)
		for name, pairs := range map[string][2]uint64{
			"bottomk": {b1.Stats().Pairs, b2.Stats().Pairs},
			"pps":     {p1.Stats().Pairs, p2.Stats().Pairs},
		} {
			if pairs[0] != uint64(len(stream)) || pairs[1] != pairs[0] {
				t.Errorf("%+v %s: Stats().Pairs %d pushed, %d batched, want %d", cfg, name, pairs[0], pairs[1], len(stream))
			}
		}
		sameSample(t, b2.Close(), b1.Close(), "bottomk")
		sameSample(t, p2.Close(), p1.Close(), "pps")
		mustPanic(t, func() { b2.PushBatch(stream[:1]) })
	}
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
		var ce *configError
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
