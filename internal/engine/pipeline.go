package engine

import (
	"sync"

	"repro/internal/dataset"
)

// pipeline is the lifecycle shared by the engine's summarizers: the
// closed-state guard and the in-line-vs-sharded dispatch, generic over the
// stream item type T (Pair) and the per-shard sampler state S. Summarizers
// embed it and implement only sampler construction and the type-specific
// merge; the item-level glue is two small functions — key (the hash-router
// input) and apply (how a batch of items drives one sampler).
type pipeline[T, S any] struct {
	closed bool
	inline bool // true: seq is driven in-line, no goroutines
	seq    S
	apply  func(S, []T)
	one    [1]T // the in-line path's batch for a single Push
	sh     *sharder[T, S]
	pairs  uint64
}

// newPipeline builds the execution strategy selected by cfg, constructing
// per-shard sampler state with mk. It panics on an invalid Config;
// callers handling user input validate first (Config.Validate).
func newPipeline[T, S any](cfg Config, mk func() S, key func(T) dataset.Key, apply func(S, []T)) pipeline[T, S] {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	// Async always takes the worker path, even with one shard: the point
	// is to decouple the producer from the sampling work.
	if shards := cfg.NumShards(); shards > 1 || cfg.Async {
		return pipeline[T, S]{apply: apply, sh: newSharder(shards, cfg, mk, key, apply)}
	}
	return pipeline[T, S]{inline: true, seq: mk(), apply: apply}
}

// push offers one arrival to the pipeline.
func (p *pipeline[T, S]) push(item T) {
	if p.closed {
		panic("engine: Push after Close")
	}
	p.pairs++
	if p.inline {
		p.one[0] = item
		p.apply(p.seq, p.one[:])
		return
	}
	p.sh.push(item)
}

// PushBatch offers a slice of arrivals, in order. On the in-line path the
// sampler takes the whole slice in one call; on the sharded path each item
// is routed into its shard's arena batch, as Push would.
//
//summarylint:hot
func (p *pipeline[T, S]) PushBatch(items []T) {
	if p.closed {
		panic("engine: Push after Close")
	}
	p.pairs += uint64(len(items))
	if p.inline {
		p.apply(p.seq, items)
		return
	}
	for _, it := range items {
		p.sh.push(it)
	}
}

// pushRejected stands for n arrivals the producer did not push because it
// proved them rejected against the sampler's certain-reject bound: the
// samples are what pushing them would have left, and Stats().Pairs counts
// them.
func (p *pipeline[T, S]) pushRejected(n int) {
	if p.closed {
		panic("engine: Push after Close")
	}
	p.pairs += uint64(n)
}

// close marks the pipeline closed and returns the samplers to merge: the
// single in-line sampler, or every shard's state after drain.
func (p *pipeline[T, S]) close() []S {
	if p.closed {
		panic("engine: Close after Close")
	}
	p.closed = true
	if p.inline {
		return []S{p.seq}
	}
	return p.sh.drain()
}

// Stats returns the pipeline's throughput and backpressure counters. Like
// Push, it must be called from the producer goroutine (or after Close).
func (p *pipeline[T, S]) Stats() Stats {
	st := Stats{Pairs: p.pairs}
	if p.sh != nil {
		st.Stalls = p.sh.stalls
	}
	return st
}

// sharder is the sharded batching pipeline shared by the engines: it owns
// the per-shard buffers, bounded worker queues, and goroutines, generically
// over the item and sampler-state types. The engines own sampler
// construction and the merge.
//
// Batch slices live in a sync.Pool arena: the producer takes a slice from
// the pool, fills it, and hands it to a shard worker, which returns it to
// the pool after applying — so a steady-state producer allocates nothing
// per batch; each handoff sends one such slice down the shard's channel.
// Pool entries are *[]T (a bare []T would box the slice header on every
// Put, re-introducing the allocation the arena removes).
type sharder[T, S any] struct {
	batch    int
	key      func(T) dataset.Key
	bufs     []*[]T
	chans    []chan *[]T
	samplers []S
	arena    sync.Pool
	stalls   uint64
	wg       sync.WaitGroup
}

// newSharder spawns one worker goroutine per shard, each draining batches
// into sampler state built by mk.
func newSharder[T, S any](shards int, cfg Config, mk func() S, key func(T) dataset.Key, apply func(S, []T)) *sharder[T, S] {
	sh := &sharder[T, S]{
		batch:    cfg.effectiveBatchSize(),
		key:      key,
		bufs:     make([]*[]T, shards),
		chans:    make([]chan *[]T, shards),
		samplers: make([]S, shards),
	}
	sh.arena.New = func() any {
		s := make([]T, 0, sh.batch)
		return &s
	}
	for i := 0; i < shards; i++ {
		sh.bufs[i] = sh.getBuf()
		ch := make(chan *[]T, cfg.effectiveQueueDepth())
		s := mk()
		sh.chans[i] = ch
		sh.samplers[i] = s
		sh.wg.Add(1)
		go func() {
			defer sh.wg.Done()
			for items := range ch {
				apply(s, *items)
				sh.putBuf(items)
			}
		}()
	}
	return sh
}

// getBuf takes an empty batch slice from the arena.
func (sh *sharder[T, S]) getBuf() *[]T {
	return sh.arena.Get().(*[]T)
}

// putBuf recycles an applied batch slice back to the arena for the
// producer to refill.
func (sh *sharder[T, S]) putBuf(buf *[]T) {
	*buf = (*buf)[:0]
	sh.arena.Put(buf)
}

// push routes one arrival to its shard, handing the shard's batch to its
// worker when full and pulling a recycled slice from the arena.
//
//summarylint:hot
func (sh *sharder[T, S]) push(item T) {
	i := 0
	if len(sh.chans) > 1 {
		i = shardOf(sh.key(item), len(sh.chans))
	}
	buf := sh.bufs[i]
	//summarylint:ignore arena buffers carry cap=batch, so this append never grows (benchgate pins 0 allocs/op)
	*buf = append(*buf, item)
	if len(*buf) >= sh.batch {
		sh.send(i, buf)
		sh.bufs[i] = sh.getBuf()
	}
}

// send hands one full batch to a shard worker. The queue is bounded, so
// the handoff can block — at most until the worker frees one slot by
// consuming a batch — and every blocking handoff is counted as a stall:
// Stats().Stalls is the engine's explicit backpressure signal.
//
//summarylint:hot
func (sh *sharder[T, S]) send(i int, items *[]T) {
	select {
	case sh.chans[i] <- items:
	default:
		sh.stalls++
		sh.chans[i] <- items
	}
}

// drain flushes the buffered batches, stops the workers, and returns the
// samplers, now exclusively owned by the caller (wg.Wait orders every
// worker write before the return).
func (sh *sharder[T, S]) drain() []S {
	for i, buf := range sh.bufs {
		if len(*buf) > 0 {
			sh.send(i, buf)
		}
		close(sh.chans[i])
	}
	sh.wg.Wait()
	return sh.samplers
}
