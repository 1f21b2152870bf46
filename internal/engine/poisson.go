package engine

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/sampling"
)

// PoissonPPS is a sharded streaming Poisson PPS summarizer with a fixed
// weight-scale threshold tauStar. Poisson sampling is a stateless per-key
// filter, so the merge is a plain union of the per-shard samples — trivially
// identical to a sequential sampling.StreamPoissonPPS pass.
//
// Push, Stats, and Close must be called from a single producer
// goroutine; the seed function must be safe for concurrent use.
type PoissonPPS struct {
	pipeline[Pair, *sampling.StreamPoissonPPS]
}

// NewPoissonPPS returns a Poisson PPS summarization pipeline with
// weight-scale threshold tauStar (inclusion probability min{1, v/tauStar}).
func NewPoissonPPS(tauStar float64, seed sampling.SeedFunc, cfg Config) *PoissonPPS {
	return &PoissonPPS{pipeline: newPipeline(cfg,
		func() *sampling.StreamPoissonPPS { return sampling.NewStreamPoissonPPS(tauStar, seed) },
		func(p Pair) dataset.Key { return p.Key },
		(*sampling.StreamPoissonPPS).PushBatch,
	)}
}

// Push offers one (key, value) arrival.
func (e *PoissonPPS) Push(h dataset.Key, v float64) {
	e.pipeline.push(Pair{Key: h, Value: v})
}

// TauGuard returns the in-line sampler's certain-reject bound, as
// BottomK.TauGuard does; NaN on the sharded and async paths.
func (e *PoissonPPS) TauGuard() float64 {
	if !e.inline {
		return math.NaN()
	}
	return e.seq.TauGuard()
}

// PushRejected counts n arrivals proved rejected against TauGuard in
// Stats().Pairs, as pushing them would have; the sample is unchanged.
func (e *PoissonPPS) PushRejected(n int) { e.pushRejected(n) }

// Close flushes buffered batches, waits for the shard workers, and returns
// the merged PPS sample (sampling.MergePoissonPPS). The pipeline is
// unusable afterwards.
func (e *PoissonPPS) Close() *sampling.WeightedSample {
	return sampling.MergePoissonPPS(e.close()...)
}
