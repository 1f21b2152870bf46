package core

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/xhash"
)

// VarOpt_k summaries extend the dispersed workflow beyond hash-seeded
// sampling: a fixed-size variance-optimal weighted sample (Chao 1982;
// Cohen, Duffield, Kaplan, Lund, Thorup 2009) whose adjusted weights are
// unbiased subset-sum estimators with the variance-optimality the
// order-sampling families cannot give. The price is that VarOpt draws
// true randomness — there are no per-key seeds to recompute — so VarOpt
// summaries answer single-instance subset sums, not the cross-instance
// partial-information queries of §4–§5. They share the Summarizer front
// door (and its salt) so the registry's compatibility invariant still
// groups summaries by randomization.

// SummarizeVarOpt draws a VarOpt_k summary of one instance through the
// engine on its sequential path; use SummarizeVarOptWith to fan out across
// shards for heavy instances.
func (s *Summarizer) SummarizeVarOpt(instance int, in dataset.Instance, k int) *VarOptSummary {
	return s.SummarizeVarOptWith(engine.Config{}, instance, in, k)
}

// SummarizeVarOptWith draws a VarOpt_k summary through the engine under
// the given config. The drop-decision randomness is derived from the
// Summarizer's salt and the instance index, so a fixed (salt, instance,
// config, arrival order) reproduces the same sample.
func (s *Summarizer) SummarizeVarOptWith(cfg engine.Config, instance int, in dataset.Instance, k int) *VarOptSummary {
	sample := engine.SummarizeVarOpt(in, k, s.varOptSeed(instance), cfg)
	return newVarOptSummary(s.seeder, instance, sample.Tau, sample.Original)
}

// varOptSeed derives the engine seed of one instance's VarOpt pipeline.
func (s *Summarizer) varOptSeed(instance int) uint64 {
	return xhash.Hash2(s.seeder.Salt, uint64(instance))
}

// VarOptStream summarizes one instance incrementally with a VarOpt_k
// reservoir behind the engine pipeline seam: Push arrivals as they happen,
// Close to obtain the finished VarOptSummary.
type VarOptStream struct {
	instance int
	parent   *Summarizer
	e        *engine.VarOpt
}

// StreamVarOpt opens a VarOpt_k summarization stream for one instance.
func (s *Summarizer) StreamVarOpt(cfg engine.Config, instance, k int) *VarOptStream {
	return &VarOptStream{
		instance: instance,
		parent:   s,
		e:        engine.NewVarOpt(k, s.varOptSeed(instance), cfg),
	}
}

// Push offers one (key, weight) arrival.
func (st *VarOptStream) Push(h dataset.Key, v float64) { st.e.Push(h, v) }

// PushBatch offers a slice of arrivals, in order, with one call into the
// engine for the batch.
func (st *VarOptStream) PushBatch(ps []engine.Pair) { st.e.PushBatch(ps) }

// Stats exposes the engine's throughput and backpressure counters.
func (st *VarOptStream) Stats() engine.Stats { return st.e.Stats() }

// Close drains the pipeline and returns the finished summary.
func (st *VarOptStream) Close() *VarOptSummary {
	sample := st.e.Close()
	return newVarOptSummary(st.parent.seeder, st.instance, sample.Tau, sample.Original)
}

// varoptWire is the serialized form of a VarOptSummary. Values carries the
// ORIGINAL weights; adjusted weights are reconstructed as max(w, tau), the
// identity the reservoir maintains, so the wire stays one float per key —
// the same 16-byte v2 entry layout as the other weighted kinds. Tau = 0
// means the reservoir never overflowed (every adjusted weight is the
// original weight).
type varoptWire struct {
	Version  int                     `json:"version"`
	Kind     string                  `json:"kind"`
	Instance int                     `json:"instance"`
	Tau      float64                 `json:"tau"`
	Salt     uint64                  `json:"salt"`
	Shared   bool                    `json:"shared"`
	Values   map[dataset.Key]float64 `json:"values"`
}

// MarshalJSON encodes the summary with its randomization salt — not used
// for seed recomputation (VarOpt has no seeds) but required for the
// registry's per-dataset compatibility invariant.
func (v *VarOptSummary) MarshalJSON() ([]byte, error) {
	return json.Marshal(varoptWire{
		Version:  WireVersion,
		Kind:     "varopt",
		Instance: v.instance,
		Tau:      v.tau,
		Salt:     v.seeder.Salt,
		Values:   v.weightedValues(),
	})
}

// decodeVarOptWire reconstructs a VarOptSummary from its parsed v1 wire
// form.
func decodeVarOptWire(w varoptWire, stored bool) (*VarOptSummary, error) {
	if err := checkWire("varopt", w.Version, w.Shared); err != nil {
		return nil, err
	}
	if !(w.Tau >= 0) || math.IsInf(w.Tau, 1) {
		return nil, fmt.Errorf("core: invalid varopt threshold %v", w.Tau)
	}
	v := newVarOptSummary(xhash.Seeder{Salt: w.Salt}, w.Instance, w.Tau, w.Values)
	if _, err := checkEntries(v.entries, 16, stored); err != nil {
		return nil, err
	}
	return v, nil
}
