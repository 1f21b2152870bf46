package engine

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/sampling"
)

// BottomK is a sharded streaming bottom-k summarizer. Push offers arrivals,
// Close drains the pipeline and returns the merged sample. The result is
// identical to feeding the same stream through one sequential
// sampling.StreamBottomK (see sampling.MergeBottomK for why the merge is
// exact).
//
// Push, Stats, and Close must be called from a single producer
// goroutine; the parallelism is internal. The seed function is shared by
// all shard workers and must be safe for concurrent use (hash-derived
// seeds are pure functions and qualify).
type BottomK struct {
	k   int
	fam sampling.RankFamily
	pipeline[Pair, *sampling.StreamBottomK]
}

// NewBottomK returns a bottom-k summarization pipeline of size k over the
// given rank family and seed function.
func NewBottomK(k int, fam sampling.RankFamily, seed sampling.SeedFunc, cfg Config) *BottomK {
	return &BottomK{k: k, fam: fam, pipeline: newPipeline(cfg,
		func() *sampling.StreamBottomK { return sampling.NewStreamBottomK(k, fam, seed) },
		func(p Pair) dataset.Key { return p.Key },
		(*sampling.StreamBottomK).PushBatch,
	)}
}

// Push offers one (key, value) arrival.
func (e *BottomK) Push(h dataset.Key, v float64) {
	e.pipeline.push(Pair{Key: h, Value: v})
}

// TauGuard returns the in-line sampler's certain-reject bound
// (sampling.StreamBottomK.TauGuard), which the producer may test arrivals
// against and then count them with PushRejected instead of pushing them.
// It is NaN on the sharded and async paths, whose samplers belong to their
// workers.
func (e *BottomK) TauGuard() float64 {
	if !e.inline {
		return math.NaN()
	}
	return e.seq.TauGuard()
}

// PushRejected counts n arrivals proved rejected against TauGuard in
// Stats().Pairs, as pushing them would have; the sample is unchanged.
func (e *BottomK) PushRejected(n int) { e.pushRejected(n) }

// Close flushes buffered batches, waits for the shard workers, and returns
// the merged bottom-k sample. The pipeline is unusable afterwards.
func (e *BottomK) Close() *sampling.WeightedSample {
	return mergeBottomKSamplers(e.k, e.fam, e.close())
}

// mergeBottomKSamplers merges per-shard bottom-k samplers into the global
// sample.
func mergeBottomKSamplers(k int, fam sampling.RankFamily, samplers []*sampling.StreamBottomK) *sampling.WeightedSample {
	if len(samplers) == 1 {
		return samplers[0].Snapshot()
	}
	groups := make([][]sampling.Entry, len(samplers))
	for i, s := range samplers {
		groups[i] = s.Entries()
	}
	return sampling.MergeBottomK(k, fam, groups...)
}
