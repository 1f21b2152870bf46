package core

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sampling"
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

// VarOptSummary is a VarOpt_k summary of a single instance.
type VarOptSummary struct {
	// Instance is the index identifying this instance.
	Instance int
	// Sample holds the retained keys with original and adjusted weights.
	Sample *sampling.VarOptSample

	parent *Summarizer
}

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
	return &VarOptSummary{
		Instance: instance,
		Sample:   engine.SummarizeVarOpt(in, k, s.varOptSeed(instance), cfg),
		parent:   s,
	}
}

// varOptSeed derives the engine seed of one instance's VarOpt pipeline.
func (s *Summarizer) varOptSeed(instance int) uint64 {
	return xhash.Hash2(s.seeder.Salt, uint64(instance))
}

// SubsetSum estimates Σ_{h∈sel} v(h) by summing adjusted weights (nil sel
// selects all keys; the all-keys sum is the exact stream total).
func (v *VarOptSummary) SubsetSum(sel func(dataset.Key) bool) float64 {
	return v.Sample.SubsetSum(sel)
}

// Len returns the number of retained keys.
func (v *VarOptSummary) Len() int { return len(v.Sample.Adjusted) }

// InstanceID implements Summary.
func (v *VarOptSummary) InstanceID() int { return v.Instance }

// Kind implements Summary.
func (v *VarOptSummary) Kind() string { return "varopt" }

// Size implements Summary.
func (v *VarOptSummary) Size() int { return v.Len() }

func (v *VarOptSummary) seederOf() xhash.Seeder { return v.parent.seeder }

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

// TryPush offers one arrival without blocking: where Push would stall on a
// full shard queue, it returns engine.ErrQueueFull (counted in
// Stats().Rejected).
func (st *VarOptStream) TryPush(h dataset.Key, v float64) error { return st.e.TryPush(h, v) }

// Snapshot returns a summary of the arrivals pushed so far without closing
// the stream. Each snapshot consumes fresh merge randomness.
func (st *VarOptStream) Snapshot() *VarOptSummary {
	return &VarOptSummary{Instance: st.instance, Sample: st.e.Snapshot(), parent: st.parent}
}

// Stats exposes the engine's throughput and backpressure counters.
func (st *VarOptStream) Stats() engine.Stats { return st.e.Stats() }

// Close drains the pipeline and returns the finished summary.
func (st *VarOptStream) Close() *VarOptSummary {
	return &VarOptSummary{Instance: st.instance, Sample: st.e.Close(), parent: st.parent}
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
		Instance: v.Instance,
		Tau:      v.Sample.Tau,
		Salt:     v.parent.seeder.Salt,
		Shared:   v.parent.seeder.Shared,
		Values:   v.Sample.Original,
	})
}

// decodeVarOptWire reconstructs a VarOptSummary from its parsed v1 wire
// form.
func decodeVarOptWire(w varoptWire, stored bool) (*VarOptSummary, error) {
	if err := checkVersion("varopt", w.Version); err != nil {
		return nil, err
	}
	if !(w.Tau >= 0) || math.IsInf(w.Tau, 1) {
		return nil, fmt.Errorf("core: invalid varopt threshold %v", w.Tau)
	}
	if err := checkWireValues(w.Values, stored); err != nil {
		return nil, err
	}
	vals := w.Values
	if vals == nil {
		vals = map[dataset.Key]float64{}
	}
	return &VarOptSummary{
		Instance: w.Instance,
		Sample:   varOptSampleFromWire(vals, w.Tau),
		parent:   &Summarizer{seeder: xhash.Seeder{Salt: w.Salt, Shared: w.Shared}},
	}, nil
}

// varOptSampleFromWire rebuilds a VarOptSample from original weights and
// the threshold, restoring the adjusted-weight identity max(w, tau).
func varOptSampleFromWire(original map[dataset.Key]float64, tau float64) *sampling.VarOptSample {
	adj := make(map[dataset.Key]float64, len(original))
	for h, w := range original {
		adj[h] = math.Max(w, tau)
	}
	return &sampling.VarOptSample{Adjusted: adj, Original: original, Tau: tau}
}

// DecodeVarOptSummary reconstructs a VarOptSummary from its wire form (v1
// JSON or v2 binary).
func DecodeVarOptSummary(data []byte) (*VarOptSummary, error) {
	return decodeAs[*VarOptSummary](data, "varopt")
}
