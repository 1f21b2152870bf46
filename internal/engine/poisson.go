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
	e.pipeline.Push(Pair{Key: h, Value: v})
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
// the merged PPS sample. The pipeline is unusable afterwards.
func (e *PoissonPPS) Close() *sampling.WeightedSample {
	return unionPoissonSamplers(e.close())
}

// unionPoissonSamplers unions per-shard Poisson samples into one (shards
// hold disjoint key partitions). The result
// map is presized to the summed shard sizes, so the copies never grow it —
// one allocation for the union regardless of shard count.
func unionPoissonSamplers(samplers []*sampling.StreamPoissonPPS) *sampling.WeightedSample {
	total := 0
	for _, s := range samplers {
		total += s.Len()
	}
	vals := make(map[dataset.Key]float64, total)
	for _, s := range samplers {
		s.AppendTo(vals)
	}
	return &sampling.WeightedSample{Values: vals, Tau: samplers[0].RankTau(), Family: sampling.PPS{}}
}

// SummarizePoissonPPS runs a materialized instance through a Poisson PPS
// pipeline with the given config.
func SummarizePoissonPPS(in dataset.Instance, tauStar float64, seed sampling.SeedFunc, cfg Config) *sampling.WeightedSample {
	e := NewPoissonPPS(tauStar, seed, cfg)
	for h, v := range in {
		e.Push(h, v)
	}
	return e.Close()
}

// MultiPoissonPPS summarizes r instances in one pass over a combined
// MultiPair stream: each shard worker hosts r Poisson PPS samplers behind
// the single hash router. taus[i] is instance i's weight-scale threshold;
// seeds(i) its seed function (the same function for every instance ⇒
// coordinated samples, per-instance functions ⇒ independent samples).
// Per-instance results are bit-identical to r independent sequential
// passes.
type MultiPoissonPPS struct {
	r int
	pipeline[MultiPair, *instanceGroup[*sampling.StreamPoissonPPS]]
}

// NewMultiPoissonPPS returns a one-pass Poisson PPS summarization pipeline
// over len(taus) instances.
func NewMultiPoissonPPS(taus []float64, seeds func(instance int) sampling.SeedFunc, cfg Config) *MultiPoissonPPS {
	if len(taus) == 0 {
		panic("engine: NewMultiPoissonPPS with no instances")
	}
	r := len(taus)
	return &MultiPoissonPPS{r: r, pipeline: newPipeline(cfg,
		func() *instanceGroup[*sampling.StreamPoissonPPS] {
			return newInstanceGroup(r, func(i int) *sampling.StreamPoissonPPS {
				return sampling.NewStreamPoissonPPS(taus[i], seeds(i))
			})
		},
		func(m MultiPair) dataset.Key { return m.Key },
		(*instanceGroup[*sampling.StreamPoissonPPS]).pushBatch,
	)}
}

// Instances returns r, the number of summarized instances.
func (e *MultiPoissonPPS) Instances() int { return e.r }

// Push offers one (key, value) arrival of the given instance (0 ≤
// instance < r).
func (e *MultiPoissonPPS) Push(instance int, h dataset.Key, v float64) {
	checkInstance(instance, e.r)
	e.pipeline.Push(MultiPair{Key: h, Instance: instance, Value: v})
}

// PushBatch offers a slice of combined-stream arrivals, in order.
func (e *MultiPoissonPPS) PushBatch(ms []MultiPair) {
	checkInstances(ms, e.r)
	e.pipeline.PushBatch(ms)
}

// Close drains the pipeline and returns the per-instance samples, indexed
// by instance. The pipeline is unusable afterwards.
func (e *MultiPoissonPPS) Close() []*sampling.WeightedSample {
	groups := e.pipeline.close()
	out := make([]*sampling.WeightedSample, e.r)
	per := make([]*sampling.StreamPoissonPPS, len(groups))
	for i := 0; i < e.r; i++ {
		for gi, g := range groups {
			per[gi] = g.by[i]
		}
		out[i] = unionPoissonSamplers(per)
	}
	return out
}

// SummarizeMultiPoissonPPS runs r materialized instances through a
// one-pass multi-instance Poisson PPS pipeline: ins[i] is summarized with
// threshold taus[i] and seeds(i). The result equals
// []{SummarizePoissonPPS(ins[i], taus[i], seeds(i), cfg)} bit for bit, at
// the cost of one scan instead of r.
func SummarizeMultiPoissonPPS(ins []dataset.Instance, taus []float64, seeds func(instance int) sampling.SeedFunc, cfg Config) []*sampling.WeightedSample {
	if len(ins) != len(taus) {
		panic("engine: SummarizeMultiPoissonPPS needs one threshold per instance")
	}
	e := NewMultiPoissonPPS(taus, seeds, cfg)
	for i, in := range ins {
		for h, v := range in {
			e.Push(i, h, v)
		}
	}
	return e.Close()
}
