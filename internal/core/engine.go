package core

import (
	"repro/internal/engine"
	"repro/internal/sampling"
	"repro/internal/xhash"
)

// This file wires the weighted single-instance streams through the
// summarization engine: StreamBottomK and StreamPPS take an engine.Config
// and return one WeightedStream, and every config yields the same summary
// — ranks depend only on the hash-derived seeds, not on arrival order or
// shard assignment — so estimator semantics never depend on the execution
// strategy. The one-shot Summarize entry points run the same samplers
// in-line.

// WeightedStream summarizes one instance incrementally with a weighted
// sampler, bottom-k or Poisson PPS: Push arrivals as they happen (or
// PushBatch them), Close to obtain the finished summary. It is the
// streaming face of SummarizeBottomK and SummarizePPS for callers that
// never materialize the instance. Push, PushBatch and TauGuard are the
// engine.Stream's.
type WeightedStream struct {
	*engine.Stream
	seeder   xhash.Seeder
	instance int
	tau      float64 // StreamPPS's threshold; 0, which the PPS sampler refuses, marks bottom-k
}

// StreamBottomK opens a bottom-k summarization stream for one instance;
// Close returns a bottom-k summary (a BottomKReader).
func (s *Summarizer) StreamBottomK(cfg engine.Config, instance int, k int, fam sampling.RankFamily) *WeightedStream {
	return &WeightedStream{Stream: engine.NewBottomK(k, fam, s.seedFunc(instance), cfg), seeder: s.seeder, instance: instance}
}

// StreamPPS opens a Poisson PPS summarization stream for one instance at a
// fixed threshold tau; Close returns a *PPSSummary.
func (s *Summarizer) StreamPPS(cfg engine.Config, instance int, tau float64) *WeightedStream {
	return &WeightedStream{Stream: engine.NewPoissonPPS(tau, s.seedFunc(instance), cfg), seeder: s.seeder, instance: instance, tau: tau}
}

// Seeder returns the seeds the stream's sampler draws, for a producer that
// tests arrivals against TauGuard.
func (w *WeightedStream) Seeder() xhash.InstanceSeeder { return w.seeder.Instance(w.instance) }

// Close drains the pipeline and returns the finished summary.
func (w *WeightedStream) Close() Summary {
	sample := w.Stream.Close()
	if w.tau == 0 {
		return newBottomKSummary(w.seeder, w.instance, sample)
	}
	return newPPSSummary(w.seeder, w.instance, w.tau, sample.Entries)
}
