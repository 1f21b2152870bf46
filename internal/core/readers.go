package core

import (
	"encoding/binary"
	"slices"
	"sync"

	"repro/internal/dataset"
	"repro/internal/sampling"
	"repro/internal/xhash"
)

// Reader interfaces are the query-side seam between the estimators and
// the summaries: a query needs the kind parameters and the retained
// (key, value) pairs, in ascending key order.
//
// Every query that walks keys does it the same way: over the consulted
// summaries' stored entries, in place. A canonical message's entries are
// already ascending, so an ordered merge reads them where they lie, one
// cursor per summary (unionMerge for r set summaries; max-dominance, always
// two PPS summaries, merges inline), handing each union key's (sampled,
// value) per instance to a per-key estimator kernel as scalars — the r = 2
// PPS pair kernel, the OR^(L) table — with seeds from seeders bound to their
// instances once per query. Per-key terms therefore accumulate in ascending
// key order, so equal summaries answer with bit-identical floats (pinned
// against query_ref_test.go); a query allocates nothing per key and holds
// nothing that grows with sample size. Lookup, Contains and AppendKeys remain
// for point queries (quantile) and for callers outside this package.
//
// Summary's unexported methods seal the interfaces to this package's types.
// The tests' map-backed reference summaries (query_ref_test.go) are the one
// other implementation; they hand the kernels canonical entries built from
// their maps.

// weightedReader is what the read surfaces of the two weighted sample kinds
// share.
type weightedReader interface {
	Summary
	// Lookup reports the stored value of key h.
	Lookup(h dataset.Key) (float64, bool)
	// AppendKeys appends every retained key to dst (order unspecified).
	AppendKeys(dst []dataset.Key) []dataset.Key
	// SubsetSum estimates Σ_{h∈sel} v(h) (nil sel selects all keys) with the
	// kind's inverse-probability weights, accumulating in ascending key
	// order.
	SubsetSum(sel func(dataset.Key) bool) float64
}

// PPSReader is the read surface of a PPS summary.
type PPSReader interface {
	weightedReader
	// PPSTau returns the PPS threshold: key h was included iff
	// v(h) ≥ u(h)·PPSTau().
	PPSTau() float64
}

// BottomKReader is the read surface of a bottom-k summary.
type BottomKReader interface {
	weightedReader
	// RankTau returns the rank-conditioning threshold (+Inf = every
	// positive key retained).
	RankTau() float64
	// RankFam returns the rank family the summary was drawn with.
	RankFam() sampling.RankFamily
}

// SetReader is the read surface of a set summary.
type SetReader interface {
	Summary
	// SetP returns the per-member sampling probability.
	SetP() float64
	// Contains reports whether key h is a sampled member.
	Contains(h dataset.Key) bool
	// AppendKeys appends every sampled member to dst (order unspecified).
	AppendKeys(dst []dataset.Key) []dataset.Key
}

// varOptReader is the read surface of a VarOpt_k summary.
type varOptReader interface {
	Summary
	// VarOptTau returns the final reservoir threshold (0 = never
	// overflowed).
	VarOptTau() float64
	// SubsetSum estimates Σ_{h∈sel} v(h) by summing adjusted weights,
	// accumulating in ascending key order.
	SubsetSum(sel func(dataset.Key) bool) float64
}

// queryScratch is the working memory of one query: a cursor and a seeder
// per consulted summary, and the backing arrays of whatever else its
// estimator reads (a point query's outcome, the OR^(L) table) — O(r) in the
// number of summaries, nothing in their sizes. It is pooled, so a warm
// server's allocations per query do not depend on sample size.
type queryScratch struct {
	merge   unionMerge
	seeders []xhash.InstanceSeeder
	floats  []float64
	bools   []bool
}

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// release returns the scratch to the pool with no summary left reachable
// from it.
func (sc *queryScratch) release() {
	clear(sc.merge.rest)
	scratchPool.Put(sc)
}

// bindSeeders binds the summaries' shared seeder to each one's instance,
// once per query: a per-key seed is then one Mix64 instead of three.
func bindSeeders[S Summary](sc *queryScratch, sums []S) []xhash.InstanceSeeder {
	sc.seeders = resize(sc.seeders, len(sums))
	for i, s := range sums {
		sc.seeders[i] = s.seederOf().Instance(s.InstanceID())
	}
	return sc.seeders
}

// mergeOf starts the ordered walk over the members of sets.
func (sc *queryScratch) mergeOf(sets []SetReader) *unionMerge {
	m := &sc.merge
	m.rest, m.in = resize(m.rest, len(sets)), resize(m.in, len(sets))
	for i, s := range sets {
		m.rest[i] = s.stored().entries
	}
	return m
}

// resize returns s with length n, reusing its backing array when it is
// large enough; the contents are unspecified.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// unionMerge walks the union of set summaries' ascending members — their
// stored 8-byte entries, read in place — in ascending key order, visiting
// each distinct key once.
type unionMerge struct {
	rest [][]byte // per summary: its entries from the first unconsumed one on
	in   []bool   // per summary: whether it holds the current key
}

// next advances to the smallest unconsumed key. It reports false when
// every summary is exhausted; otherwise in[i] tells whether summary i holds
// the key. The scan is linear in the number of summaries, which the per-key
// work (one seed per instance) already is.
//
//summarylint:hot
func (m *unionMerge) next() (uint64, bool) {
	var key uint64
	found := false
	for _, e := range m.rest {
		if len(e) > 0 {
			if k := binary.LittleEndian.Uint64(e); !found || k < key {
				key, found = k, true
			}
		}
	}
	if !found {
		return 0, false
	}
	for i, e := range m.rest {
		if m.in[i] = len(e) > 0 && binary.LittleEndian.Uint64(e) == key; m.in[i] {
			m.rest[i] = e[8:]
		}
	}
	return key, true
}
