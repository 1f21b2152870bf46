// Package engine is the sharded, batched summarization pipeline: the
// throughput layer between raw (key, value) arrivals and the sampling
// substrates of internal/sampling.
//
// A Stream hash-partitions keys across a configurable number of shards,
// each served by a worker goroutine running one sequential sampler of the
// stream's kind (sampling.StreamBottomK for bottom-k / order sampling,
// sampling.StreamPoissonPPS for Poisson PPS). Arrivals are handed to
// workers in batches to amortize channel synchronization. On Close the
// per-shard samples are merged into a sample identical to what one
// sequential pass over the whole stream would have kept: ranks and
// inclusion tests depend only on the shared seed function, never on
// arrival order or shard assignment, so the merge is well-defined and
// exact (sampling.MergeBottomK over the shards' entries,
// sampling.MergePoissonPPS as a union).
//
// # Execution modes
//
// The zero Config routes everything through a single in-line sequential
// sampler with no goroutines — the safe default for small instances —
// and Push calls that sampler's own Push.
// Config{Parallel: true} fans out across GOMAXPROCS workers; Push then
// does no sampling work itself, it only routes batches.
//
// Config{Async: true} additionally decouples the producer from the
// samplers even when there is only one shard. Every shard has a bounded
// queue of queueDepth batches, and a Push blocks only while the
// destination shard's queue is full, i.e. at most until the worker drains
// one batch. Memory is bounded by shards × (queueDepth+2) × BatchSize
// buffered pairs (per shard: the producer-side buffer, the queued
// batches, and the batch the worker is applying).
// Close always drains: the sample it returns holds every pushed pair and
// is bit-identical to the sync-mode (and sequential) sample.
//
// This is the seam ingest backends (files, sockets, queues) plug into:
// anything that can produce Pair values can saturate the pipeline.
// Multi-instance summarization is r such streams, one per instance: the
// server's one-pass multi-instance ingest routes each pair of a combined
// stream to its instance's in-line stream.
package engine

import (
	"runtime"

	"repro/internal/dataset"
	"repro/internal/sampling"
	"repro/internal/xhash"
)

// DefaultBatchSize is the number of pairs buffered per shard before they
// are handed to the shard's worker. 1024 pairs ≈ 16 KiB per batch: large
// enough to amortize channel operations, small enough to keep workers busy.
const DefaultBatchSize = 1024

// queueDepth is the per-shard queue capacity, in batches. A small queue
// lets the producer run ahead of a momentarily busy worker without
// unbounded buffering.
const queueDepth = 8

// Config selects the execution strategy of a summarization pipeline. The
// zero value means sequential: one sampler, no goroutines, byte-identical
// to calling the internal/sampling streams directly. A Shards or BatchSize
// of zero or less selects the documented default.
type Config struct {
	// Parallel enables the sharded pipeline. When false (and Async is
	// false) the engine degenerates to a single in-line sampler.
	Parallel bool
	// Shards is the number of hash partitions (and worker goroutines) when
	// Parallel; 0 means GOMAXPROCS.
	Shards int
	// BatchSize is the number of pairs buffered per shard between channel
	// sends; 0 means DefaultBatchSize.
	BatchSize int
	// Async decouples the producer from the samplers even on a one-shard
	// pipeline: a Push blocks only while the destination shard's bounded
	// queue is full, at most until the worker drains one batch.
	Async bool
}

// NumShards resolves the effective shard count.
func (c Config) NumShards() int {
	if !c.Parallel {
		return 1
	}
	if c.Shards > 0 {
		return c.Shards
	}
	return runtime.GOMAXPROCS(0)
}

// effectiveBatchSize resolves the effective batch size.
func (c Config) effectiveBatchSize() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return DefaultBatchSize
}

// Pair is one (key, value) arrival. Streams feed the engine as Pair values;
// the instances×keys model assigns one value per key per instance, so a key
// must arrive at most once per stream.
type Pair = sampling.Pair

// shardOf routes a key to its shard. The route is a pure function of the
// key, so re-feeding a stream in any order reproduces the same partition;
// the merged result is independent of the partition anyway, but stable
// routing keeps per-shard load deterministic. Mix64 decorrelates the route
// from the seed hashes (which mix the key with a salt via Hash2).
func shardOf(h dataset.Key, shards int) int {
	return int(xhash.Mix64(uint64(h)) % uint64(shards))
}
