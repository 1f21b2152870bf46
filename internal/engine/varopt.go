package engine

import (
	"repro/internal/dataset"
	"repro/internal/randx"
	"repro/internal/sampling"
	"repro/internal/xhash"
)

// VarOpt is a sharded streaming VarOpt_k summarizer behind the same
// pipeline seam as the bottom-k and Poisson engines: Push offers arrivals,
// Close merges the per-shard reservoirs into one VarOpt_k sample.
//
// Unlike bottom-k and Poisson PPS, VarOpt draws true randomness for its
// drop decisions (there are no per-key seeds to recompute), so sharded
// results are NOT bit-identical to a sequential pass: each shard runs its
// own deterministic splitmix64 stream derived from the engine seed, and
// the per-shard reservoirs are combined with sampling.MergeVarOpt — the
// threshold-union (two-level) construction, which keeps subset-sum
// estimates unbiased for every shard count. Shard-count invariance is
// therefore distributional (equal expectations, comparable variance), not
// bitwise; the property tests pin the Monte Carlo moments.
//
// Push, Stats, and Close must be called from a single producer
// goroutine; the parallelism is internal.
type VarOpt struct {
	k int
	pipeline[Pair, *sampling.VarOpt]
	// mergeRNG drives the re-drop decisions of the Close merge,
	// deterministically derived from the engine seed and independent of
	// every shard stream.
	mergeRNG *randx.RNG
}

// NewVarOpt returns a VarOpt_k summarization pipeline of capacity k.
// seed deterministically derives every shard's drop-decision stream (and
// the merge stream), so a fixed (seed, shard count, arrival order) triple
// reproduces the same sample.
func NewVarOpt(k int, seed uint64, cfg Config) *VarOpt {
	if k <= 0 {
		panic("engine: NewVarOpt with non-positive k")
	}
	shard := uint64(0)
	return &VarOpt{
		k:        k,
		mergeRNG: randx.New(xhash.Hash2(seed, 0)),
		pipeline: newPipeline(cfg,
			func() *sampling.VarOpt {
				shard++
				return sampling.NewVarOpt(k, randx.New(xhash.Hash2(seed, shard)))
			},
			func(p Pair) dataset.Key { return p.Key },
			(*sampling.VarOpt).AddBatch,
		),
	}
}

// K returns the reservoir capacity.
func (e *VarOpt) K() int { return e.k }

// Push offers one (key, weight) arrival.
func (e *VarOpt) Push(h dataset.Key, v float64) {
	e.pipeline.Push(Pair{Key: h, Value: v})
}

// Close drains the pipeline and returns the merged VarOpt sample. The
// pipeline is unusable afterwards.
func (e *VarOpt) Close() *sampling.VarOptSample {
	samplers := e.pipeline.close()
	if len(samplers) == 1 {
		// One reservoir: its sample is already final; re-dropping through
		// MergeVarOpt would only launder weights through another level.
		return samplers[0].Sample()
	}
	return sampling.MergeVarOpt(e.k, e.mergeRNG, samplers...).Sample()
}

// SummarizeVarOpt runs a materialized instance through a VarOpt_k pipeline
// with the given config. Instance iteration order is map order, so unlike
// the bottom-k summarizers two runs over the same instance may retain
// different keys; the estimates are unbiased either way.
func SummarizeVarOpt(in dataset.Instance, k int, seed uint64, cfg Config) *sampling.VarOptSample {
	e := NewVarOpt(k, seed, cfg)
	for h, v := range in {
		e.Push(h, v)
	}
	return e.Close()
}
