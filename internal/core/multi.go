package core

import (
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sampling"
	"repro/internal/xhash"
)

// The Multi streams summarize r instances in ONE pass over a combined
// stream: Push(i, h, v) names the instance by its position in the
// instances slice, and the stream drives that instance's sampler in-line.
// Each instance keeps its own hash-derived seeds, so the per-instance
// results are bit-identical to r single-instance passes.

// MultiPair is one (key, instance, value) arrival of a combined
// multi-instance stream: Instance is the position, in the stream's
// instances slice, of the instance whose sampler consumes the pair. A
// (key, instance) combination must arrive at most once per stream.
type MultiPair struct {
	Key      dataset.Key
	Instance int
	Value    float64
}

// pairSampler is the sampler of one instance of a multiStream.
type pairSampler interface {
	Push(key dataset.Key, v float64)
}

// multiStream is what the Multi streams share: one sampler per instance
// and the count of arrivals Stats reports.
type multiStream[S pairSampler] struct {
	seeder    xhash.Seeder
	instances []int
	by        []S
	pairs     uint64
}

// newMultiStream copies the instance IDs and builds one sampler per
// instance with mk.
func newMultiStream[S pairSampler](seeder xhash.Seeder, instances []int, mk func(i int) S) multiStream[S] {
	m := multiStream[S]{seeder: seeder, instances: append([]int(nil), instances...), by: make([]S, len(instances))}
	for i := range m.by {
		m.by[i] = mk(i)
	}
	return m
}

// Push offers one (key, value) arrival of instances[i].
func (m *multiStream[S]) Push(i int, h dataset.Key, v float64) {
	m.by[i].Push(h, v)
	m.pairs++
}

// PushBatch offers a slice of combined-stream arrivals, in order; each
// names its instance by position in instances.
//
//summarylint:hot
func (m *multiStream[S]) PushBatch(ms []MultiPair) {
	for _, p := range ms {
		m.by[p.Instance].Push(p.Key, p.Value)
	}
	m.pairs += uint64(len(ms))
}

// Stats reports the arrivals pushed so far.
func (m *multiStream[S]) Stats() engine.Stats { return engine.Stats{Pairs: m.pairs} }

// MultiBottomKStream summarizes r instances incrementally in one pass.
type MultiBottomKStream struct {
	multiStream[*sampling.StreamBottomK]
}

// StreamMultiBottomK opens a one-pass bottom-k summarization stream over
// the given instance IDs (positions in the slice name the Push index).
func (s *Summarizer) StreamMultiBottomK(instances []int, k int, fam sampling.RankFamily) *MultiBottomKStream {
	return &MultiBottomKStream{newMultiStream(s.seeder, instances, func(i int) *sampling.StreamBottomK {
		return sampling.NewStreamBottomK(k, fam, s.seedFunc(instances[i]))
	})}
}

// Close returns the finished per-instance summaries, ordered as the
// instances slice.
func (m *MultiBottomKStream) Close() []*BottomKSummary {
	out := make([]*BottomKSummary, len(m.by))
	for i, st := range m.by {
		out[i] = newBottomKSummary(m.seeder, m.instances[i], st.Snapshot())
	}
	return out
}

// MultiPPSStream summarizes r instances incrementally in one pass with
// Poisson PPS sampling at per-instance thresholds.
type MultiPPSStream struct {
	multiStream[*sampling.StreamPoissonPPS]
	taus []float64
}

// StreamMultiPPS opens a one-pass Poisson PPS summarization stream over
// the given instance IDs; taus[i] is the threshold of instances[i].
// Thresholds must be positive: the degenerate thresholds SummarizePPS
// accepts (tau = 0 keeps every positive key, tau < 0 none) have no
// streaming sampler.
func (s *Summarizer) StreamMultiPPS(instances []int, taus []float64) *MultiPPSStream {
	if len(instances) != len(taus) {
		panic("core: StreamMultiPPS needs one threshold per instance")
	}
	for _, tau := range taus {
		if tau <= 0 {
			panic("core: StreamMultiPPS needs positive thresholds")
		}
	}
	return &MultiPPSStream{
		multiStream: newMultiStream(s.seeder, instances, func(i int) *sampling.StreamPoissonPPS {
			return sampling.NewStreamPoissonPPS(taus[i], s.seedFunc(instances[i]))
		}),
		taus: append([]float64(nil), taus...),
	}
}

// Close returns the finished per-instance summaries, ordered as the
// instances slice.
func (m *MultiPPSStream) Close() []*PPSSummary {
	out := make([]*PPSSummary, len(m.by))
	for i, st := range m.by {
		out[i] = newPPSSummary(m.seeder, m.instances[i], m.taus[i], st.Snapshot().Values)
	}
	return out
}
