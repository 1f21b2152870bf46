package sampling

import (
	"math"
	"sort"

	"repro/internal/dataset"
)

// Entry is one retained (key, rank, value) triple of a bottom-k sampler:
// the item of its heap. Entries are the mergeable representation of
// partial bottom-k state: the rank of a key depends only on its seed and
// value, never on arrival order or on which sampler observed it, so entry
// sets from disjoint key partitions can be combined into the exact global
// sample.
type Entry struct {
	Key   dataset.Key
	Rank  float64
	Value float64
}

// Entries returns the sampler's retained entries — the current sample plus
// the threshold witness when one is held — in unspecified order. Together
// with MergeBottomK this supports sharded summarization: partition a stream
// by key, run one StreamBottomK per shard, and merge the retained entries.
func (s *StreamBottomK) Entries() []Entry {
	return append([]Entry(nil), s.h...)
}

// MergeBottomK combines per-shard retained entry sets into the global
// bottom-k sample. It is exact — identical to a single sequential pass over
// the union of the shards' streams — provided every group holds its own
// stream's min(k+1, n) lowest-ranked entries (which StreamBottomK.Entries
// guarantees for samplers of size ≥ k), each key appears in exactly one
// group, and ranks are distinct (hash-derived seeds make rank ties a
// measure-zero event; merge breaks any tie by key, arrival order being
// meaningless across shards).
func MergeBottomK(k int, fam RankFamily, groups ...[]Entry) *WeightedSample {
	if k <= 0 {
		panic("sampling: MergeBottomK with non-positive k")
	}
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	all := make([]Entry, 0, total)
	for _, g := range groups {
		all = append(all, g...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Rank != all[j].Rank {
			return all[i].Rank < all[j].Rank
		}
		return all[i].Key < all[j].Key
	})
	if len(all) <= k {
		// Fewer than k+1 entries survive globally: everything is sampled
		// and the conditioning threshold is unbounded.
		return newBottomKSample(all, math.Inf(1), fam)
	}
	// The (k+1)-st smallest rank is the threshold witness, excluded from
	// the sample exactly as in StreamBottomK.Snapshot.
	return newBottomKSample(all[:k], all[k].Rank, fam)
}

// MergePoissonPPS unions per-shard Poisson PPS samplers of one threshold
// into the global sample. Poisson sampling is a stateless per-key filter
// and shards hold disjoint key partitions, so the union is exactly what
// one sequential pass over the whole stream keeps; it is sorted by key
// once, here, in one slice presized to the summed shard samples.
func MergePoissonPPS(samplers ...*StreamPoissonPPS) *WeightedSample {
	total := 0
	for _, s := range samplers {
		total += len(s.out)
	}
	all := make([]Pair, 0, total)
	for _, s := range samplers {
		all = append(all, s.out...)
	}
	return &WeightedSample{Entries: ascending(all), Tau: samplers[0].rankTau, Family: PPS{}}
}

// newBottomKSample builds the bottom-k sample of the kept entries under
// the conditioning threshold tau.
func newBottomKSample(kept []Entry, tau float64, fam RankFamily) *WeightedSample {
	ps := make([]Pair, len(kept))
	for i, e := range kept {
		ps[i] = Pair{Key: e.Key, Value: e.Value}
	}
	return &WeightedSample{Entries: ascending(ps), Tau: tau, Family: fam}
}
