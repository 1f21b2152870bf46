package core

import (
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sampling"
	"repro/internal/xhash"
)

// This file wires the Summarizer front door through the sharded
// summarization engine. Every Summarize entry point in core.go routes
// through one of the With variants below with the zero (sequential)
// engine.Config; callers with heavy streams pass Config{Parallel: true} to
// fan out across shards. Either way the resulting summary is identical —
// ranks depend only on the hash-derived seeds, not on arrival order or
// shard assignment — so estimator semantics never depend on the execution
// strategy.

// SummarizePPSWith draws the PPS summary of one instance with threshold tau
// through the engine under the given config.
func (s *Summarizer) SummarizePPSWith(cfg engine.Config, instance int, in dataset.Instance, tau float64) *PPSSummary {
	if tau <= 0 {
		// The engine's stream samplers reject non-positive thresholds, but
		// this entry point has always accepted them (tau = 0 samples every
		// positive key, tau < 0 samples none); keep the historical batch
		// semantics for the degenerate cases.
		return newPPSSummary(s.seeder, instance, tau, sampling.PoissonPPS(in, tau, s.seedFunc(instance)).Values)
	}
	return newPPSSummary(s.seeder, instance, tau, engine.SummarizePoissonPPS(in, tau, s.seedFunc(instance), cfg).Values)
}

// SummarizePPSExpectedSizeWith draws a PPS summary sized to k expected keys
// through the engine under the given config.
func (s *Summarizer) SummarizePPSExpectedSizeWith(cfg engine.Config, instance int, in dataset.Instance, k float64) *PPSSummary {
	return s.SummarizePPSWith(cfg, instance, in, sampling.TauForExpectedSize(in, k))
}

// SummarizeBottomKWith draws a bottom-k summary through the engine under
// the given config.
func (s *Summarizer) SummarizeBottomKWith(cfg engine.Config, instance int, in dataset.Instance, k int, fam sampling.RankFamily) *BottomKSummary {
	return newBottomKSummary(s.seeder, instance, engine.SummarizeBottomK(in, k, fam, s.seedFunc(instance), cfg))
}

// BottomKStream summarizes one instance incrementally: Push arrivals as
// they happen, Close to obtain the finished BottomKSummary. It is the
// streaming face of SummarizeBottomKWith for callers that never
// materialize the instance.
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
	return newPPSSummary(p.parent.seeder, p.instance, p.tau, p.e.Close().Values)
}

// --- One-pass multi-instance summarization -----------------------------
//
// The Multi streams summarize r instances in ONE pass over a combined
// stream: Push(i, h, v) names the instance by its position in the
// instances slice, and the engine hosts one sampler per instance behind
// every shard worker. Per-instance results are bit-identical to r
// independent single-instance passes.

// multiSeeds adapts the seeder to a slice of instance IDs, indexed by
// position.
func (s *Summarizer) multiSeeds(instances []int) func(int) sampling.SeedFunc {
	return func(i int) sampling.SeedFunc { return s.seedFunc(instances[i]) }
}

// MultiBottomKStream summarizes r instances incrementally in one pass.
type MultiBottomKStream struct {
	instances []int
	parent    *Summarizer
	e         *engine.MultiBottomK
}

// StreamMultiBottomK opens a one-pass bottom-k summarization stream over
// the given instance IDs (positions in the slice name the Push index).
func (s *Summarizer) StreamMultiBottomK(cfg engine.Config, instances []int, k int, fam sampling.RankFamily) *MultiBottomKStream {
	ids := append([]int(nil), instances...)
	return &MultiBottomKStream{
		instances: ids,
		parent:    s,
		e:         engine.NewMultiBottomK(len(ids), k, fam, s.multiSeeds(ids), cfg),
	}
}

// Push offers one (key, value) arrival of instances[i].
func (m *MultiBottomKStream) Push(i int, h dataset.Key, v float64) { m.e.Push(i, h, v) }

// PushBatch offers a slice of combined-stream arrivals, in order; each
// names its instance by position in instances.
func (m *MultiBottomKStream) PushBatch(ms []engine.MultiPair) { m.e.PushBatch(ms) }

// Stats exposes the engine's throughput and backpressure counters.
func (m *MultiBottomKStream) Stats() engine.Stats { return m.e.Stats() }

// Close drains the pipeline and returns the finished per-instance
// summaries, ordered as the instances slice.
func (m *MultiBottomKStream) Close() []*BottomKSummary {
	samples := m.e.Close()
	out := make([]*BottomKSummary, len(samples))
	for i, sm := range samples {
		out[i] = newBottomKSummary(m.parent.seeder, m.instances[i], sm)
	}
	return out
}

// MultiPPSStream summarizes r instances incrementally in one pass with
// Poisson PPS sampling at per-instance thresholds.
type MultiPPSStream struct {
	instances []int
	taus      []float64
	parent    *Summarizer
	e         *engine.MultiPoissonPPS
}

// StreamMultiPPS opens a one-pass Poisson PPS summarization stream over
// the given instance IDs; taus[i] is the threshold of instances[i].
// Thresholds must be positive: the degenerate batch semantics of
// SummarizePPSWith (tau = 0 keeps every positive key, tau < 0 none) have
// no streaming sampler — SummarizeMultiPPSWith handles them by falling
// back to per-instance batch summarization.
func (s *Summarizer) StreamMultiPPS(cfg engine.Config, instances []int, taus []float64) *MultiPPSStream {
	if len(instances) != len(taus) {
		panic("core: StreamMultiPPS needs one threshold per instance")
	}
	for _, tau := range taus {
		if tau <= 0 {
			panic("core: StreamMultiPPS needs positive thresholds (degenerate taus are batch-only; see SummarizeMultiPPSWith)")
		}
	}
	ids := append([]int(nil), instances...)
	ts := append([]float64(nil), taus...)
	return &MultiPPSStream{
		instances: ids,
		taus:      ts,
		parent:    s,
		e:         engine.NewMultiPoissonPPS(ts, s.multiSeeds(ids), cfg),
	}
}

// Push offers one (key, value) arrival of instances[i].
func (m *MultiPPSStream) Push(i int, h dataset.Key, v float64) { m.e.Push(i, h, v) }

// PushBatch offers a slice of combined-stream arrivals, in order; each
// names its instance by position in instances.
func (m *MultiPPSStream) PushBatch(ms []engine.MultiPair) { m.e.PushBatch(ms) }

// Stats exposes the engine's throughput and backpressure counters.
func (m *MultiPPSStream) Stats() engine.Stats { return m.e.Stats() }

// Close drains the pipeline and returns the finished per-instance
// summaries, ordered as the instances slice.
func (m *MultiPPSStream) Close() []*PPSSummary {
	samples := m.e.Close()
	out := make([]*PPSSummary, len(samples))
	for i, sm := range samples {
		out[i] = newPPSSummary(m.parent.seeder, m.instances[i], m.taus[i], sm.Values)
	}
	return out
}

// SummarizeMultiPPSWith draws PPS summaries of r materialized instances in
// one pass: ins[i] is summarized as instance instances[i] with threshold
// taus[i]. Bit-identical to calling SummarizePPSWith per instance,
// including the degenerate thresholds (tau = 0 keeps every positive key,
// tau < 0 none) — those have no streaming sampler, so their presence
// drops the whole call to per-instance batch summarization.
func (s *Summarizer) SummarizeMultiPPSWith(cfg engine.Config, instances []int, ins []dataset.Instance, taus []float64) []*PPSSummary {
	if len(instances) != len(ins) {
		panic("core: SummarizeMultiPPSWith needs one instance ID per instance")
	}
	if len(instances) != len(taus) {
		panic("core: SummarizeMultiPPSWith needs one threshold per instance")
	}
	for _, tau := range taus {
		if tau <= 0 {
			out := make([]*PPSSummary, len(ins))
			for i, in := range ins {
				out[i] = s.SummarizePPSWith(cfg, instances[i], in, taus[i])
			}
			return out
		}
	}
	st := s.StreamMultiPPS(cfg, instances, taus)
	for i, in := range ins {
		//summarylint:ignore sampler Push keeps keys by per-key seed threshold, so the sample is arrival-order independent (property-tested ≡ sequential)
		for h, v := range in {
			st.Push(i, h, v)
		}
	}
	return st.Close()
}

// SummarizeMultiBottomKWith draws bottom-k summaries of r materialized
// instances in one pass. Bit-identical to calling SummarizeBottomKWith per
// instance.
func (s *Summarizer) SummarizeMultiBottomKWith(cfg engine.Config, instances []int, ins []dataset.Instance, k int, fam sampling.RankFamily) []*BottomKSummary {
	if len(instances) != len(ins) {
		panic("core: SummarizeMultiBottomKWith needs one instance ID per instance")
	}
	st := s.StreamMultiBottomK(cfg, instances, k, fam)
	for i, in := range ins {
		//summarylint:ignore bottom-k Push keeps the k smallest ranks, so the sample is arrival-order independent (property-tested ≡ sequential)
		for h, v := range in {
			st.Push(i, h, v)
		}
	}
	return st.Close()
}
