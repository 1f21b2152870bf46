package core

import (
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
// Every query that walks keys does it the same way. Each consulted reader
// decodes its entries, which are already ascending, into a column of
// pooled per-query scratch. An ordered merge then walks the columns once
// (unionMerge for r of them; max-dominance, always two, merges inline),
// handing each union key's (sampled, value) per instance to a per-key
// estimator kernel as scalars — the r = 2 PPS pair kernel, the OR^(L)
// table — with seeds drawn from seeders bound to their instances once per
// query. Per-key terms therefore accumulate in ascending key order, so
// equal summaries answer with bit-identical floats (pinned by the
// differential tests against query_ref_test.go), and a query allocates
// nothing per key.
//
// Lookup, Contains and AppendKeys remain for point queries (quantile) and
// for callers outside this package.
//
// Like Summary, the interfaces embed an unexported method, so only this
// package's types can satisfy them — combinability checks need the
// underlying seeder either way. The tests' map-backed reference summaries
// (query_ref_test.go) are the one other implementation.

// PPSReader is the read surface of a PPS summary.
type PPSReader interface {
	Summary
	// PPSTau returns the PPS threshold: key h was included iff
	// v(h) ≥ u(h)·PPSTau().
	PPSTau() float64
	// Lookup reports the stored value of key h.
	Lookup(h dataset.Key) (float64, bool)
	// AppendKeys appends every retained key to dst (order unspecified).
	AppendKeys(dst []dataset.Key) []dataset.Key
	// SubsetSum estimates Σ_{h∈sel} v(h) (nil sel selects all keys),
	// accumulating in ascending key order.
	SubsetSum(sel func(dataset.Key) bool) float64

	columnReader
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

	columnReader
}

// BottomKReader is the read surface of a bottom-k summary.
type BottomKReader interface {
	Summary
	// RankTau returns the rank-conditioning threshold (+Inf = every
	// positive key retained).
	RankTau() float64
	// RankFam returns the rank family the summary was drawn with.
	RankFam() sampling.RankFamily
	// Lookup reports the stored value of key h.
	Lookup(h dataset.Key) (float64, bool)
	// AppendKeys appends every retained key to dst (order unspecified).
	AppendKeys(dst []dataset.Key) []dataset.Key
	// SubsetSum estimates Σ_{h∈sel} v(h) with the rank-conditioning
	// estimator, accumulating in ascending key order.
	SubsetSum(sel func(dataset.Key) bool) float64

	columnReader
}

// VarOptReader is the read surface of a VarOpt_k summary.
type VarOptReader interface {
	Summary
	// VarOptTau returns the final reservoir threshold (0 = never
	// overflowed).
	VarOptTau() float64
	// SubsetSum estimates Σ_{h∈sel} v(h) by summing adjusted weights,
	// accumulating in ascending key order.
	SubsetSum(sel func(dataset.Key) bool) float64
}

// --- ascending columns and their ordered merge --------------------------

// column is one summary's retained keys in ascending order. Weighted kinds
// fill vals in parallel; set summaries do not touch it.
type column struct {
	keys []uint64
	vals []float64
}

// columnReader is the unexported half of the reader interfaces: the one
// read every key-walking query performs.
type columnReader interface {
	// loadColumn overwrites c with the summary's ascending column, reusing
	// c's backing arrays.
	loadColumn(c *column)
}

// queryScratch is the working memory of one query: a column per consulted
// summary, the merge cursors, a seeder bound to each instance, and the
// backing arrays of whatever else the query's estimator reads (a point
// query's outcome, the OR^(L) table). It is pooled, so a warm server
// answers a query with a number of allocations that does not depend on
// sample size.
type queryScratch struct {
	cols    []column
	merge   unionMerge
	seeders []xhash.InstanceSeeder
	floats  []float64
	bools   []bool
}

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// loadColumns loads one pooled column per reader, in order.
func loadColumns[R columnReader](sc *queryScratch, rs []R) []column {
	for len(sc.cols) < len(rs) {
		sc.cols = append(sc.cols, column{})
	}
	cols := sc.cols[:len(rs)]
	for i, r := range rs {
		r.loadColumn(&cols[i])
	}
	return cols
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

// mergeOf starts the ordered walk over cols.
func (sc *queryScratch) mergeOf(cols []column) *unionMerge {
	m := &sc.merge
	m.cols = cols
	m.pos, m.at = resize(m.pos, len(cols)), resize(m.at, len(cols))
	clear(m.pos)
	return m
}

// resize returns s with length n, reusing its backing array when it is
// large enough; the contents are unspecified.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// unionMerge walks the union of ascending columns in ascending key order,
// visiting each distinct key once.
type unionMerge struct {
	cols []column
	pos  []int // per column: the next unconsumed index
	at   []int // per column: the current key's index, or -1 when absent
}

// next advances to the smallest unconsumed key. It reports false when
// every column is exhausted; otherwise at[i] locates the key in column i.
// The scan is linear in the number of columns, which the per-key work
// (one seed per instance) already is.
//
//summarylint:hot
func (m *unionMerge) next() (uint64, bool) {
	var key uint64
	found := false
	for i := range m.cols {
		if keys := m.cols[i].keys; m.pos[i] < len(keys) {
			if k := keys[m.pos[i]]; !found || k < key {
				key, found = k, true
			}
		}
	}
	if !found {
		return 0, false
	}
	for i := range m.cols {
		m.at[i] = -1
		if keys := m.cols[i].keys; m.pos[i] < len(keys) && keys[m.pos[i]] == key {
			m.at[i] = m.pos[i]
			m.pos[i]++
		}
	}
	return key, true
}
