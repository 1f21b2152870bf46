package engine

import (
	"fmt"
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
	e.pipeline.Push(Pair{Key: h, Value: v})
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

// SummarizeBottomK runs a materialized instance through a bottom-k pipeline
// with the given config. With the zero Config this is the sequential
// baseline; with Parallel it is the sharded pipeline. Both return the same
// sample.
func SummarizeBottomK(in dataset.Instance, k int, fam sampling.RankFamily, seed sampling.SeedFunc, cfg Config) *sampling.WeightedSample {
	e := NewBottomK(k, fam, seed, cfg)
	for h, v := range in {
		e.Push(h, v)
	}
	return e.Close()
}

// MultiBottomK summarizes r instances of dispersed data in one pass over a
// combined MultiPair stream: each shard worker hosts r bottom-k samplers
// behind the single hash router, so all instances are summarized with one
// scan. Per-instance results are bit-identical to r independent sequential
// passes. seeds(i) supplies instance i's seed function: hand every
// instance the same function for coordinated (shared-seed) samples,
// distinct per-instance functions for independent samples.
type MultiBottomK struct {
	r   int
	k   int
	fam sampling.RankFamily
	pipeline[MultiPair, *instanceGroup[*sampling.StreamBottomK]]
}

// NewMultiBottomK returns a one-pass bottom-k summarization pipeline over
// r instances.
func NewMultiBottomK(r, k int, fam sampling.RankFamily, seeds func(instance int) sampling.SeedFunc, cfg Config) *MultiBottomK {
	if r <= 0 {
		panic("engine: NewMultiBottomK with non-positive instance count")
	}
	return &MultiBottomK{r: r, k: k, fam: fam, pipeline: newPipeline(cfg,
		func() *instanceGroup[*sampling.StreamBottomK] {
			return newInstanceGroup(r, func(i int) *sampling.StreamBottomK {
				return sampling.NewStreamBottomK(k, fam, seeds(i))
			})
		},
		func(m MultiPair) dataset.Key { return m.Key },
		(*instanceGroup[*sampling.StreamBottomK]).pushBatch,
	)}
}

// Instances returns r, the number of summarized instances.
func (e *MultiBottomK) Instances() int { return e.r }

// Push offers one (key, value) arrival of the given instance (0 ≤
// instance < r).
func (e *MultiBottomK) Push(instance int, h dataset.Key, v float64) {
	checkInstance(instance, e.r)
	e.pipeline.Push(MultiPair{Key: h, Instance: instance, Value: v})
}

// PushBatch offers a slice of combined-stream arrivals, in order.
func (e *MultiBottomK) PushBatch(ms []MultiPair) {
	checkInstances(ms, e.r)
	e.pipeline.PushBatch(ms)
}

// Close drains the pipeline and returns the per-instance samples, indexed
// by instance. The pipeline is unusable afterwards.
func (e *MultiBottomK) Close() []*sampling.WeightedSample {
	groups := e.pipeline.close()
	out := make([]*sampling.WeightedSample, e.r)
	per := make([]*sampling.StreamBottomK, len(groups))
	for i := 0; i < e.r; i++ {
		for gi, g := range groups {
			per[gi] = g.by[i]
		}
		out[i] = mergeBottomKSamplers(e.k, e.fam, per)
	}
	return out
}

// SummarizeMultiBottomK runs r materialized instances through a one-pass
// multi-instance bottom-k pipeline: ins[i] is summarized with seeds(i).
// The result equals []{SummarizeBottomK(ins[i], k, fam, seeds(i), cfg)}
// bit for bit, at the cost of one scan instead of r.
func SummarizeMultiBottomK(ins []dataset.Instance, k int, fam sampling.RankFamily, seeds func(instance int) sampling.SeedFunc, cfg Config) []*sampling.WeightedSample {
	e := NewMultiBottomK(len(ins), k, fam, seeds, cfg)
	for i, in := range ins {
		for h, v := range in {
			e.Push(i, h, v)
		}
	}
	return e.Close()
}

// checkInstance bounds-checks a multi-stream instance index on the
// producer side, before the pair crosses into a worker goroutine.
func checkInstance(instance, r int) {
	if instance < 0 || instance >= r {
		panic(fmt.Sprintf("engine: instance %d out of range [0,%d)", instance, r))
	}
}

// checkInstances is checkInstance for every arrival of a batch.
func checkInstances(ms []MultiPair, r int) {
	for _, m := range ms {
		checkInstance(m.Instance, r)
	}
}
