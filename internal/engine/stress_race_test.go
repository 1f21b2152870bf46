//go:build race

// Race-detector stress tests for the async pipeline. They are gated on
// the race build because their value is the -race instrumentation, not
// the assertions: without it they are just slow; with it they put the
// producer contract (one goroutine calling Push/Close) under maximum
// pressure against the shard workers and against consumer goroutines
// reading the samples earlier cycles closed.
package engine

import (
	"math"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sampling"
	"repro/internal/testutil"
	"repro/internal/xhash"
)

// TestStressAsyncIngestCloseQuery runs repeated Push → Close cycles on an
// async sharded bottom-k engine, with a hot producer per cycle while
// reader goroutines query the samples the previous cycles closed. Every
// closed sample must be fully detached from the workers that built it: a
// merge that shared state with a worker still draining is a data race the
// detector will flag here.
func TestStressAsyncIngestCloseQuery(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	seeder := xhash.Seeder{Salt: 11}
	seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
	cfg := Config{Parallel: true, Shards: 4, Async: true, BatchSize: 64}

	closed := make(chan *sampling.WeightedSample, 16)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range closed {
				sum := s.SubsetSum(nil)
				if len(s.Entries) > 0 && !(sum > 0) {
					t.Errorf("sample with %d keys has subset sum %v", len(s.Entries), sum)
				}
			}
		}()
	}

	// Keys are distinct within a cycle: a stream carries at most one value
	// per key.
	const cycles, n = 10, 5_000
	for c := 0; c < cycles; c++ {
		e := NewBottomK(64, sampling.PPS{}, seed, cfg)
		for i := 0; i < n; i++ {
			e.Push(dataset.Key(c*n+i+1), float64(i%97+1))
		}
		s := e.Close()
		if len(s.Entries) != 64 || math.IsInf(s.Tau, 1) {
			t.Errorf("cycle %d: len %d tau %v, want a saturated bottom-64", c, len(s.Entries), s.Tau)
		}
		closed <- s
	}
	close(closed)
	wg.Wait()
}
