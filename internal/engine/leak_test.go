package engine

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/sampling"
	"repro/internal/testutil"
	"repro/internal/xhash"
)

// TestCloseReleasesWorkerGoroutines pins the shutdown contract of every
// goroutine-owning pipeline configuration: after Close returns, no shard
// worker is left behind.
func TestCloseReleasesWorkerGoroutines(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	seeder := xhash.Seeder{Salt: 41}
	seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
	for _, cfg := range []Config{
		{Parallel: true, Shards: 4},
		{Async: true},
		{Parallel: true, Shards: 2, Async: true, BatchSize: 16},
	} {
		e := NewBottomK(16, sampling.PPS{}, seed, cfg)
		for i := 0; i < 3_000; i++ {
			e.Push(dataset.Key(i+1), float64(i%31+1))
		}
		if s := e.Close(); len(s.Entries) != 16 {
			t.Fatalf("cfg %+v: final len %d, want 16", cfg, len(s.Entries))
		}
	}
}
