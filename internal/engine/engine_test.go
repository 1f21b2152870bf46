package engine

import (
	"fmt"
	"math"
	"runtime"
	"slices"
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
	ref := sampling.NewStreamBottomK(25, sampling.PPS{}, seed)
	for _, h := range in.Keys() {
		ref.Push(h, in[h])
	}
	want := ref.Snapshot()
	for _, cfg := range []Config{{}, {Parallel: true, Shards: 4, BatchSize: 32}} {
		e := NewBottomK(25, sampling.PPS{}, seed, cfg)
		for h, v := range in {
			e.Push(h, v)
		}
		sameSample(t, e.Close(), want, fmt.Sprintf("cfg %+v", cfg))
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
	if !slices.Equal(s.Entries, []Pair{{Key: 1, Value: 2}, {Key: 2, Value: 3}}) {
		t.Errorf("undersized sample = %+v", s.Entries)
	}
}

func TestEmptyStream(t *testing.T) {
	seed := func(dataset.Key) float64 { return 0.5 }
	for _, cfg := range []Config{{}, {Parallel: true, Shards: 3}} {
		s := NewBottomK(4, sampling.PPS{}, seed, cfg).Close()
		if len(s.Entries) != 0 || !math.IsInf(s.Tau, 1) {
			t.Errorf("cfg %+v: empty close = len %d tau %v", cfg, len(s.Entries), s.Tau)
		}
		p := NewPoissonPPS(10, seed, cfg).Close()
		if len(p.Entries) != 0 {
			t.Errorf("cfg %+v: empty poisson close = len %d", cfg, len(p.Entries))
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
// same sample.
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
		{Async: true, BatchSize: 64},
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
		sameSample(t, b2.Close(), b1.Close(), "bottomk")
		sameSample(t, p2.Close(), p1.Close(), "pps")
		mustPanic(t, func() { b2.PushBatch(stream[:1]) })
	}
}

// TestAsyncDrain: async Close drains to the same bits as the sequential
// pass, from a producer whose small batches fill the shard queues.
func TestAsyncDrain(t *testing.T) {
	seeder := xhash.Seeder{Salt: 99}
	seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
	rng := randx.New(5)
	stream := randomStream(rng, 5000)
	ref := sampling.NewStreamBottomK(64, sampling.PPS{}, seed)
	for _, p := range stream {
		ref.Push(p.Key, p.Value)
	}
	for _, shards := range []int{1, 3} {
		cfg := Config{Parallel: shards > 1, Shards: shards, BatchSize: 8, Async: true}
		e := NewBottomK(64, sampling.PPS{}, seed, cfg)
		e.PushBatch(stream)
		sameSample(t, e.Close(), ref.Snapshot(), "async drain shards="+strconv.Itoa(shards))
	}
}
