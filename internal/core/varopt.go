package core

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/randx"
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

// SummarizeVarOpt draws a VarOpt_k summary of one instance. The instance
// is offered in ascending key order, so a fixed (salt, instance, data)
// reproduces the same sample.
func (s *Summarizer) SummarizeVarOpt(instance int, in dataset.Instance, k int) *VarOptSummary {
	st := s.StreamVarOpt(instance, k)
	for _, h := range slices.Sorted(maps.Keys(in)) {
		st.Push(h, in[h])
	}
	return st.Close()
}

// VarOptStream summarizes one instance incrementally with a VarOpt_k
// reservoir: Push arrivals as they happen, Close to obtain the finished
// VarOptSummary.
type VarOptStream struct {
	instance int
	seeder   xhash.Seeder
	vo       *sampling.VarOpt
	pairs    uint64
}

// StreamVarOpt opens a VarOpt_k summarization stream for one instance. The
// drop-decision randomness is derived from the Summarizer's salt and the
// instance index, so a fixed (salt, instance, arrival order) reproduces the
// same sample.
func (s *Summarizer) StreamVarOpt(instance, k int) *VarOptStream {
	seed := xhash.Hash2(xhash.Hash2(s.seeder.Salt, uint64(instance)), 1)
	return &VarOptStream{instance: instance, seeder: s.seeder, vo: sampling.NewVarOpt(k, randx.New(seed))}
}

// Push offers one (key, weight) arrival.
func (st *VarOptStream) Push(h dataset.Key, v float64) {
	st.vo.Add(h, v)
	st.pairs++
}

// PushBatch offers a slice of arrivals, in order.
func (st *VarOptStream) PushBatch(ps []sampling.Pair) {
	st.vo.AddBatch(ps)
	st.pairs += uint64(len(ps))
}

// Stats reports the arrivals pushed so far.
func (st *VarOptStream) Stats() engine.Stats { return engine.Stats{Pairs: st.pairs} }

// Close returns the finished summary.
func (st *VarOptStream) Close() *VarOptSummary {
	sample := st.vo.Sample()
	return newVarOptSummary(st.seeder, st.instance, sample.Tau, sample.Original)
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
		Version:  wireVersion,
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
