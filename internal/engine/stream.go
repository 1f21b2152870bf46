package engine

import (
	"math"
	"sync"

	"repro/internal/dataset"
	"repro/internal/sampling"
)

// sampler is what the engine drives of one of internal/sampling's
// rank-threshold stream samplers (StreamBottomK, StreamPoissonPPS).
type sampler interface {
	Push(h dataset.Key, v float64)
	PushBatch(ps []Pair)
	TauGuard() float64
	Snapshot() *sampling.WeightedSample
}

// Stream is a sharded streaming weighted summarizer: bottom-k (NewBottomK)
// or Poisson PPS (NewPoissonPPS). Push offers arrivals, Close drains the
// pipeline and returns the merged sample, which is identical to what one
// sequential pass of the kind's sampler over the same stream keeps (see
// sampling.MergeBottomK and sampling.MergePoissonPPS for why the merges
// are exact).
//
// Push and Close must be called from a single producer goroutine;
// the parallelism is internal. The seed function is shared by all shard
// workers and must be safe for concurrent use (hash-derived seeds are pure
// functions and qualify).
type Stream struct {
	closed bool
	seq    sampler  // the in-line sampler; nil on the sharded and async paths
	sh     *sharder // nil on the in-line path
	// merge merges two or more shards' samplers into the global sample.
	merge func([]sampler) *sampling.WeightedSample
}

// NewBottomK returns a bottom-k summarization pipeline of size k over the
// given rank family and seed function.
func NewBottomK(k int, fam sampling.RankFamily, seed sampling.SeedFunc, cfg Config) *Stream {
	return newStream(cfg,
		func() sampler { return sampling.NewStreamBottomK(k, fam, seed) },
		func(ss []sampler) *sampling.WeightedSample {
			groups := make([][]sampling.Entry, len(ss))
			for i, s := range ss {
				groups[i] = s.(*sampling.StreamBottomK).Entries()
			}
			return sampling.MergeBottomK(k, fam, groups...)
		})
}

// NewPoissonPPS returns a Poisson PPS summarization pipeline with
// weight-scale threshold tauStar (inclusion probability min{1, v/tauStar}).
// Poisson sampling is a stateless per-key filter, so the merge is a plain
// union of the per-shard samples.
func NewPoissonPPS(tauStar float64, seed sampling.SeedFunc, cfg Config) *Stream {
	return newStream(cfg,
		func() sampler { return sampling.NewStreamPoissonPPS(tauStar, seed) },
		func(ss []sampler) *sampling.WeightedSample {
			ps := make([]*sampling.StreamPoissonPPS, len(ss))
			for i, s := range ss {
				ps[i] = s.(*sampling.StreamPoissonPPS)
			}
			return sampling.MergePoissonPPS(ps...)
		})
}

// newStream builds the execution strategy selected by cfg, constructing
// per-shard samplers with mk.
func newStream(cfg Config, mk func() sampler, merge func([]sampler) *sampling.WeightedSample) *Stream {
	// Async always takes the worker path, even with one shard: the point
	// is to decouple the producer from the sampling work.
	if shards := cfg.NumShards(); shards > 1 || cfg.Async {
		return &Stream{sh: newSharder(shards, cfg, mk), merge: merge}
	}
	return &Stream{seq: mk(), merge: merge}
}

// Push offers one (key, value) arrival.
func (e *Stream) Push(h dataset.Key, v float64) {
	if e.closed {
		panic("engine: Push after Close")
	}
	if e.sh == nil {
		e.seq.Push(h, v)
		return
	}
	e.sh.push(Pair{Key: h, Value: v})
}

// PushBatch offers a slice of arrivals, in order. On the in-line path the
// sampler takes the whole slice in one call; on the sharded path each pair
// is routed into its shard's arena batch, as Push would.
//
//summarylint:hot
func (e *Stream) PushBatch(ps []Pair) {
	if e.closed {
		panic("engine: Push after Close")
	}
	if e.sh == nil {
		e.seq.PushBatch(ps)
		return
	}
	for _, p := range ps {
		e.sh.push(p)
	}
}

// TauGuard returns the in-line sampler's certain-reject bound
// (sampling.StreamBottomK.TauGuard): a producer may test arrivals against
// it and leave out those it proves rejected, which the sampler would not
// keep. It is NaN on the sharded and async paths, whose samplers belong to
// their workers.
func (e *Stream) TauGuard() float64 {
	if e.sh != nil {
		return math.NaN()
	}
	return e.seq.TauGuard()
}

// Close flushes buffered batches, waits for the shard workers, and returns
// the merged sample. The pipeline is unusable afterwards.
func (e *Stream) Close() *sampling.WeightedSample {
	if e.closed {
		panic("engine: Close after Close")
	}
	e.closed = true
	if e.sh == nil {
		return e.seq.Snapshot()
	}
	ss := e.sh.drain()
	if len(ss) == 1 {
		return ss[0].Snapshot()
	}
	return e.merge(ss)
}

// sharder is the sharded batching pipeline behind a Stream: it owns the
// per-shard buffers, bounded worker queues, goroutines and samplers.
//
// Batch slices live in a sync.Pool arena: the producer takes a slice from
// the pool, fills it, and hands it to a shard worker, which returns it to
// the pool after applying — so a steady-state producer allocates nothing
// per batch; each handoff sends one such slice down the shard's channel.
// Pool entries are *[]Pair (a bare []Pair would box the slice header on
// every Put, re-introducing the allocation the arena removes).
type sharder struct {
	batch    int
	bufs     []*[]Pair
	chans    []chan *[]Pair
	samplers []sampler
	arena    sync.Pool
	wg       sync.WaitGroup
}

// newSharder spawns one worker goroutine per shard, each draining batches
// into a sampler built by mk.
func newSharder(shards int, cfg Config, mk func() sampler) *sharder {
	sh := &sharder{
		batch:    cfg.effectiveBatchSize(),
		bufs:     make([]*[]Pair, shards),
		chans:    make([]chan *[]Pair, shards),
		samplers: make([]sampler, shards),
	}
	sh.arena.New = func() any {
		s := make([]Pair, 0, sh.batch)
		return &s
	}
	for i := 0; i < shards; i++ {
		sh.bufs[i] = sh.getBuf()
		ch := make(chan *[]Pair, queueDepth)
		s := mk()
		sh.chans[i] = ch
		sh.samplers[i] = s
		sh.wg.Add(1)
		go func() {
			defer sh.wg.Done()
			for ps := range ch {
				s.PushBatch(*ps)
				sh.putBuf(ps)
			}
		}()
	}
	return sh
}

// getBuf takes an empty batch slice from the arena.
func (sh *sharder) getBuf() *[]Pair {
	return sh.arena.Get().(*[]Pair)
}

// putBuf recycles an applied batch slice back to the arena for the
// producer to refill.
func (sh *sharder) putBuf(buf *[]Pair) {
	*buf = (*buf)[:0]
	sh.arena.Put(buf)
}

// push routes one arrival to its shard, handing the shard's batch to its
// worker when full and pulling a recycled slice from the arena. The queue
// is bounded, so the handoff can block, at most until the worker frees
// one slot by consuming a batch.
//
//summarylint:hot
func (sh *sharder) push(p Pair) {
	i := 0
	if len(sh.chans) > 1 {
		i = shardOf(p.Key, len(sh.chans))
	}
	buf := sh.bufs[i]
	//summarylint:ignore arena buffers carry cap=batch, so this append never grows (benchgate pins 0 allocs/op)
	*buf = append(*buf, p)
	if len(*buf) >= sh.batch {
		sh.chans[i] <- buf
		sh.bufs[i] = sh.getBuf()
	}
}

// drain flushes the buffered batches, stops the workers, and returns the
// samplers, now exclusively owned by the caller (wg.Wait orders every
// worker write before the return).
func (sh *sharder) drain() []sampler {
	for i, buf := range sh.bufs {
		if len(*buf) > 0 {
			sh.chans[i] <- buf
		}
		close(sh.chans[i])
	}
	sh.wg.Wait()
	return sh.samplers
}
