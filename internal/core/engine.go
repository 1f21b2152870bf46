package core

import (
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sampling"
	"repro/internal/xhash"
)

// This file wires the single-instance streams through the summarization
// engine: StreamBottomK and StreamPPS take an engine.Config, and every
// config yields the same summary — ranks depend only on the hash-derived
// seeds, not on arrival order or shard assignment — so estimator semantics
// never depend on the execution strategy. The one-shot Summarize entry
// points run the same samplers in-line.

// BottomKStream summarizes one instance incrementally: Push arrivals as
// they happen, Close to obtain the finished BottomKSummary. It is the
// streaming face of SummarizeBottomK for callers that never materialize
// the instance.
type BottomKStream struct {
	instance int
	parent   *Summarizer
	e        *engine.BottomK
}

// StreamBottomK opens a bottom-k summarization stream for one instance.
func (s *Summarizer) StreamBottomK(cfg engine.Config, instance int, k int, fam sampling.RankFamily) *BottomKStream {
	return &BottomKStream{
		instance: instance,
		parent:   s,
		e:        engine.NewBottomK(k, fam, s.seedFunc(instance), cfg),
	}
}

// Push offers one (key, value) arrival.
func (b *BottomKStream) Push(h dataset.Key, v float64) { b.e.Push(h, v) }

// PushBatch offers a slice of arrivals, in order, with one call into the
// engine for the batch.
func (b *BottomKStream) PushBatch(ps []engine.Pair) { b.e.PushBatch(ps) }

// Seeder returns the seeds the stream's sampler draws, for a producer that
// tests arrivals against TauGuard.
func (b *BottomKStream) Seeder() xhash.InstanceSeeder { return b.parent.seeder.Instance(b.instance) }

// TauGuard returns the engine's certain-reject bound (engine.BottomK.TauGuard).
func (b *BottomKStream) TauGuard() float64 { return b.e.TauGuard() }

// PushRejected counts n arrivals proved rejected against TauGuard
// (engine.BottomK.PushRejected).
func (b *BottomKStream) PushRejected(n int) { b.e.PushRejected(n) }

// Stats exposes the engine's throughput and backpressure counters. Like
// Push it must be called from the producer goroutine (or after Close).
func (b *BottomKStream) Stats() engine.Stats { return b.e.Stats() }

// Close drains the pipeline and returns the finished summary.
func (b *BottomKStream) Close() *BottomKSummary {
	return newBottomKSummary(b.parent.seeder, b.instance, b.e.Close())
}

// PPSStream summarizes one instance incrementally with Poisson PPS
// sampling at a fixed threshold tau.
type PPSStream struct {
	instance int
	tau      float64
	parent   *Summarizer
	e        *engine.PoissonPPS
}

// StreamPPS opens a Poisson PPS summarization stream for one instance.
func (s *Summarizer) StreamPPS(cfg engine.Config, instance int, tau float64) *PPSStream {
	return &PPSStream{
		instance: instance,
		tau:      tau,
		parent:   s,
		e:        engine.NewPoissonPPS(tau, s.seedFunc(instance), cfg),
	}
}

// Push offers one (key, value) arrival.
func (p *PPSStream) Push(h dataset.Key, v float64) { p.e.Push(h, v) }

// PushBatch offers a slice of arrivals, in order, with one call into the
// engine for the batch.
func (p *PPSStream) PushBatch(ps []engine.Pair) { p.e.PushBatch(ps) }

// Seeder returns the seeds the stream's sampler draws, for a producer that
// tests arrivals against TauGuard.
func (p *PPSStream) Seeder() xhash.InstanceSeeder { return p.parent.seeder.Instance(p.instance) }

// TauGuard returns the engine's certain-reject bound (engine.PoissonPPS.TauGuard).
func (p *PPSStream) TauGuard() float64 { return p.e.TauGuard() }

// PushRejected counts n arrivals proved rejected against TauGuard
// (engine.PoissonPPS.PushRejected).
func (p *PPSStream) PushRejected(n int) { p.e.PushRejected(n) }

// Stats exposes the engine's throughput and backpressure counters.
func (p *PPSStream) Stats() engine.Stats { return p.e.Stats() }

// Close drains the pipeline and returns the finished summary.
func (p *PPSStream) Close() *PPSSummary {
	return newPPSSummary(p.parent.seeder, p.instance, p.tau, p.e.Close().Entries)
}
