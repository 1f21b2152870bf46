// Package core is the library's front door. It packages the paper's
// workflow end to end:
//
//  1. each data instance (a snapshot, log period, or sensor round) is
//     summarized *independently* of the others — the dispersed-data
//     constraint of §2 — using weighted Poisson PPS sampling or bottom-k
//     sampling with reproducible hash-derived seeds ("known seeds");
//  2. any subset of the resulting summaries can later be combined to answer
//     multi-instance queries — distinct counts, max-dominance norms,
//     per-key quantile estimates — using the Pareto-optimal
//     partial-information estimators of §4–§5 alongside the classical
//     Horvitz–Thompson baselines.
//
// The per-key estimators and the §8.1 closed forms live in
// internal/estimator, the sampling substrates in internal/sampling; this
// package wires them together so applications never handle seeds or
// outcome structures directly. The multi-instance kernels — the ordered
// merges that sum per-key estimates over the union of the summaries' keys
// (maxDominanceMerge, categorizeMerge, distinctMerge) — live here and
// nowhere else: the server, the experiments and the examples all query
// through them.
package core

import (
	"encoding/binary"
	"maps"
	"math"
	"slices"

	"repro/internal/dataset"
	"repro/internal/estimator"
	"repro/internal/sampling"
	"repro/internal/xhash"
)

// Summarizer holds the shared randomization: a salt defining the random
// hash functions. Summaries produced with the same Summarizer can be
// combined; the salt makes every seed reproducible, which is what enables
// the partial-information estimators (§5).
type Summarizer struct {
	seeder xhash.Seeder
}

// NewSummarizer returns a Summarizer with independent per-instance seeds
// (the joint distribution studied in §4–§6).
func NewSummarizer(salt uint64) *Summarizer {
	return &Summarizer{seeder: xhash.Seeder{Salt: salt}}
}

// seedFunc adapts the seeder to one instance.
func (s *Summarizer) seedFunc(instance int) sampling.SeedFunc {
	seeder := s.seeder.Instance(instance)
	return func(h dataset.Key) float64 { return seeder.Seed(uint64(h)) }
}

// SummarizePPS draws the PPS summary of one instance with threshold tau
// (inclusion probability min{1, v/tau}). Non-positive thresholds are
// degenerate but accepted: tau = 0 samples every positive key, tau < 0
// none.
func (s *Summarizer) SummarizePPS(instance int, in dataset.Instance, tau float64) *PPSSummary {
	return newPPSSummary(s.seeder, instance, tau, sampling.PoissonPPS(in, tau, s.seedFunc(instance)).Values)
}

// SummarizePPSExpectedSize draws a PPS summary sized to k expected keys.
func (s *Summarizer) SummarizePPSExpectedSize(instance int, in dataset.Instance, k float64) *PPSSummary {
	return s.SummarizePPS(instance, in, sampling.TauForExpectedSize(in, k))
}

// MaxDominanceEstimate is the result of a two-summary max-dominance query.
type MaxDominanceEstimate struct {
	// HT is the Horvitz–Thompson estimate (positive per-key contribution
	// only when the maximum is certain).
	HT float64
	// L is the partial-information estimate Σ max^(L): Pareto optimal,
	// dominating HT (§5.2, §8.2).
	L float64
	// KeysUsed is the number of distinct keys appearing in either sample.
	KeysUsed int
}

// MaxDominanceReaders estimates Σ_{h∈sel} max(v1(h), v2(h)) from two PPS
// summaries produced by the same Summarizer. Per-key terms sum in ascending
// key order.
func MaxDominanceReaders(s1, s2 PPSReader, sel func(dataset.Key) bool) (MaxDominanceEstimate, error) {
	if err := checkCombinable([]Summary{s1, s2}, 2); err != nil {
		return MaxDominanceEstimate{}, err
	}
	for _, s := range []PPSReader{s1, s2} {
		if err := checkTau(s); err != nil {
			return MaxDominanceEstimate{}, err
		}
	}
	seeder := s1.seederOf()
	return maxDominanceMerge(s1.stored(), s2.stored(), seeder.Instance(s1.InstanceID()), seeder.Instance(s2.InstanceID()),
		[2]float64{s1.PPSTau(), s2.PPSTau()}, sel), nil
}

// maxDominanceMerge sums the per-key max^(HT) and max^(L) estimates over
// the ascending union of two PPS summaries' stored entries: a two-way
// merge, each key's outcome handed to the pair kernel as scalars. A seed is
// computed only for the instance a key is absent from — neither estimate
// reads the seed of a sampled entry.
//
//summarylint:hot
func maxDominanceMerge(d0, d1 *summaryData, seed0, seed1 xhash.InstanceSeeder, tau [2]float64, sel func(dataset.Key) bool) MaxDominanceEstimate {
	var out MaxDominanceEstimate
	// A cursor is what is left of a summary's 16-byte entries.
	for e0, e1 := d0.entries, d1.entries; len(e0) > 0 || len(e1) > 0; {
		// The smaller head is the next union key; a summary is sampled at it
		// when its head is that key.
		var k0, k1 uint64
		if len(e0) > 0 {
			k0 = binary.LittleEndian.Uint64(e0)
		}
		if len(e1) > 0 {
			k1 = binary.LittleEndian.Uint64(e1)
		}
		s0 := len(e1) == 0 || (len(e0) > 0 && k0 <= k1)
		s1 := len(e0) == 0 || (len(e1) > 0 && k1 <= k0)
		var (
			h              uint64
			v0, v1, b0, b1 float64
		)
		if s0 {
			h, v0 = k0, math.Float64frombits(binary.LittleEndian.Uint64(e0[8:]))
			e0 = e0[16:]
		}
		if s1 {
			h, v1 = k1, math.Float64frombits(binary.LittleEndian.Uint64(e1[8:]))
			e1 = e1[16:]
		}
		if sel != nil && !sel(dataset.Key(h)) {
			continue
		}
		if !s0 {
			b0 = seed0.Seed(h) * tau[0]
		}
		if !s1 {
			b1 = seed1.Seed(h) * tau[1]
		}
		ht, l := estimator.MaxPPS2(s0, s1, v0, v1, b0, b1, tau[0], tau[1])
		out.HT += ht
		out.L += l
		out.KeysUsed++
	}
	return out
}

// SummarizeSet draws the known-seed Poisson summary of a set.
func (s *Summarizer) SummarizeSet(instance int, members map[dataset.Key]bool, p float64) *SetSummary {
	var sampled []dataset.Key
	//summarylint:ignore newSetSummary sorts the members it is given
	for h := range members {
		if s.seeder.Seed(instance, uint64(h)) < p {
			sampled = append(sampled, h)
		}
	}
	return newSetSummary(s.seeder, instance, p, sampled)
}

// SetStream summarizes a set incrementally: Push members as they arrive,
// Close to obtain the finished SetSummary. Known-seed Poisson set sampling
// is stateless per key (membership is decided by the seed alone), so the
// stream needs no engine pipeline — it is the set-summary face of the
// edge-ingest path.
type SetStream struct {
	seeder   xhash.Seeder
	seed     xhash.InstanceSeeder // seeder bound to instance
	instance int
	p        float64
	sampled  map[dataset.Key]struct{}
}

// StreamSet opens a set summarization stream for one instance with
// per-member sampling probability p ∈ (0, 1].
func (s *Summarizer) StreamSet(instance int, p float64) *SetStream {
	if !(p > 0 && p <= 1) {
		panic("core: StreamSet with probability outside (0,1]")
	}
	return &SetStream{seeder: s.seeder, seed: s.seeder.Instance(instance), instance: instance, p: p,
		sampled: make(map[dataset.Key]struct{})}
}

// Push offers one member arrival. Pushing the same key twice is harmless
// (the seed test is deterministic).
func (st *SetStream) Push(h dataset.Key) {
	if st.seed.Seed(uint64(h)) < st.p {
		st.sampled[h] = struct{}{}
	}
}

// Close returns the finished summary. The stream is unusable afterwards.
func (st *SetStream) Close() *SetSummary {
	members := slices.Collect(maps.Keys(st.sampled))
	st.sampled = nil
	return newSetSummary(st.seeder, st.instance, st.p, members)
}

// DistinctEstimate is the result of a two-summary distinct-count query.
type DistinctEstimate struct {
	// HT and L are the §8.1 estimates of |N1 ∪ N2| over selected keys.
	HT, L float64
	// Counts are the outcome-category tallies behind the estimates.
	Counts estimator.DistinctCounts
}

// DistinctCountReaders estimates the number of distinct selected keys
// across two set summaries produced by the same Summarizer (§8.1).
func DistinctCountReaders(s1, s2 SetReader, sel func(dataset.Key) bool) (DistinctEstimate, error) {
	if err := checkCombinable([]Summary{s1, s2}, 2); err != nil {
		return DistinctEstimate{}, err
	}
	sc := scratchPool.Get().(*queryScratch)
	defer sc.release()
	pair := []SetReader{s1, s2}
	c := categorizeMerge(sc.mergeOf(pair), bindSeeders(sc, pair), [2]float64{s1.SetP(), s2.SetP()}, sel)
	e := estimator.DistinctEstimator{P1: s1.SetP(), P2: s2.SetP()}
	return DistinctEstimate{HT: e.HT(c), L: e.L(c), Counts: c}, nil
}

// categorizeMerge tallies the §8.1 outcome categories over the ascending
// union of two set summaries' members.
//
//summarylint:hot
func categorizeMerge(m *unionMerge, seed []xhash.InstanceSeeder, p [2]float64, sel func(dataset.Key) bool) estimator.DistinctCounts {
	seed0, seed1 := seed[0], seed[1]
	var c estimator.DistinctCounts
	for h, ok := m.next(); ok; h, ok = m.next() {
		if sel != nil && !sel(dataset.Key(h)) {
			continue
		}
		c.Add(estimator.Categorize(
			m.in[0], m.in[1],
			seed0.Seed(h), seed1.Seed(h),
			p[0], p[1],
		))
	}
	return c
}

// SummarizeBottomK draws a bottom-k summary with the given rank family
// (sampling.PPS{} for priority sampling, sampling.EXP{} for weighted
// sampling without replacement).
//
//summarylint:ignore the in-memory bottom-k reference shared by the tests of internal/engine, internal/server and internal/store
func (s *Summarizer) SummarizeBottomK(instance int, in dataset.Instance, k int, fam sampling.RankFamily) *BottomKSummary {
	return newBottomKSummary(s.seeder, instance, sampling.BottomK(in, k, fam, s.seedFunc(instance)))
}
