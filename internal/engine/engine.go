// Package engine is the sharded, batched summarization pipeline: the
// throughput layer between raw (key, value) arrivals and the sampling
// substrates of internal/sampling.
//
// A summarizer hash-partitions keys across a configurable number of shards,
// each served by a worker goroutine running independent sequential
// samplers (StreamBottomK for bottom-k / order sampling, StreamPoissonPPS
// for Poisson PPS). Arrivals are handed to workers in batches to amortize
// channel synchronization. On Close the per-shard samples are merged into a
// summary identical to what one sequential pass over the whole stream would
// have produced: ranks and inclusion tests depend only on the shared seed
// function, never on arrival order or shard assignment, so the merge is
// well-defined and exact (sampling.MergeBottomK).
//
// # Execution modes
//
// The zero Config routes everything through a single in-line sequential
// sampler with no goroutines — the safe default for small instances.
// Config{Parallel: true} fans out across GOMAXPROCS workers; Push then
// does no sampling work itself, it only routes batches.
//
// Config{Async: true} additionally decouples the producer from the
// samplers even when there is only one shard, and makes the backpressure
// contract explicit: every shard has a bounded queue of QueueDepth
// batches, and Push never blocks beyond that bound — a Push stalls only
// while the destination shard's queue is full, i.e. at most until the
// worker drains one batch, and every stall is counted in Stats().Stalls.
// Memory is bounded by shards × (QueueDepth+2) × BatchSize buffered pairs
// (per shard: the producer-side buffer, the queued batches, and the batch
// the worker is applying).
// Close always drains: the summary it returns holds every pushed pair and
// is bit-identical to the sync-mode (and sequential) summary.
//
// This is the seam ingest backends (files, sockets, queues) plug into:
// anything that can produce Pair values can saturate the pipeline.
// Multi-instance and VarOpt summarization run in-line in internal/core
// and do not use the engine.
package engine

import (
	"fmt"
	"runtime"

	"repro/internal/dataset"
	"repro/internal/sampling"
	"repro/internal/xhash"
)

// DefaultBatchSize is the number of pairs buffered per shard before they
// are handed to the shard's worker. 1024 pairs ≈ 16 KiB per batch: large
// enough to amortize channel operations, small enough to keep workers busy.
const DefaultBatchSize = 1024

// defaultQueueDepth is the per-shard queue capacity, in batches. A small
// queue lets the producer run ahead of a momentarily busy worker without
// unbounded buffering.
const defaultQueueDepth = 8

// Config selects the execution strategy of a summarization pipeline. The
// zero value means sequential: one sampler, no goroutines, byte-identical
// to calling the internal/sampling streams directly.
//
// Zero-valued fields select documented defaults (see each field); negative
// values are meaningless and rejected by Validate. Pipeline constructors
// panic on an invalid Config — callers that accept user-supplied settings
// (command-line flags, request parameters) should call Validate first and
// surface the error.
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
	// pipeline and bounds the time Push may block: a Push stalls only
	// while the destination shard's bounded queue is full (at most until
	// the worker drains one batch), and stalls are counted in
	// Stats().Stalls — the engine's explicit backpressure signal.
	Async bool
	// QueueDepth is the per-shard queue capacity in batches; 0 means
	// defaultQueueDepth (8).
	QueueDepth int
}

// configError reports a Config field set to a meaningless (negative)
// value. It is the typed error behind Config.Validate, so flag handling
// in commands and request validation in services share one rule.
type configError struct {
	// Field is the offending Config field name.
	Field string
	// Value is the rejected value.
	Value int
}

// Error implements error.
func (e *configError) Error() string {
	return fmt.Sprintf("engine: Config.%s must not be negative, got %d (0 selects the default)", e.Field, e.Value)
}

// Validate rejects meaningless settings with a typed *ConfigError. The
// rule, in one place for every caller: negative Shards, BatchSize, or
// QueueDepth are errors; zero always means "use the default" (GOMAXPROCS
// shards, DefaultBatchSize, defaultQueueDepth).
func (c Config) Validate() error {
	if c.Shards < 0 {
		return &configError{Field: "Shards", Value: c.Shards}
	}
	if c.BatchSize < 0 {
		return &configError{Field: "BatchSize", Value: c.BatchSize}
	}
	if c.QueueDepth < 0 {
		return &configError{Field: "QueueDepth", Value: c.QueueDepth}
	}
	return nil
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

// effectiveQueueDepth resolves the effective per-shard queue capacity.
func (c Config) effectiveQueueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return defaultQueueDepth
}

// Pair is one (key, value) arrival. Streams feed the engine as Pair values;
// the instances×keys model assigns one value per key per instance, so a key
// must arrive at most once per stream.
type Pair = sampling.Pair

// Stats is a point-in-time view of a pipeline's throughput and
// backpressure counters. The counters are maintained by the producer
// goroutine without synchronization, so Stats must be called from the
// same goroutine that calls Push (or after Close).
type Stats struct {
	// Pairs is the number of arrivals accepted by Push.
	Pairs uint64
	// Stalls counts batch handoffs that found the destination shard's
	// queue full and had to wait for the worker — the backpressure signal.
	// A stall lasts at most the time the worker needs to drain one batch.
	Stalls uint64
}

// shardOf routes a key to its shard. The route is a pure function of the
// key, so re-feeding a stream in any order reproduces the same partition;
// the merged result is independent of the partition anyway, but stable
// routing keeps per-shard load deterministic. Mix64 decorrelates the route
// from the seed hashes (which mix the key with a salt via Hash2).
func shardOf(h dataset.Key, shards int) int {
	return int(xhash.Mix64(uint64(h)) % uint64(shards))
}
