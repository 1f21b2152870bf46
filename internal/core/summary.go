package core

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"sort"

	"repro/internal/dataset"
	"repro/internal/sampling"
	"repro/internal/xhash"
)

// The in-memory summary. A canonical v2 wire message already IS a
// queryable data structure: fixed-width entries in ascending key order. So
// that message — plus its header fields, parsed once — is the one form a
// summary takes in memory, however it arrived: drawn by a Summarizer,
// decoded from v1 JSON or from a v2 body (canonical or not), or replayed
// from the WAL. A query walks the entry region in place, front to back
// (nothing is copied out and nothing is sorted), a point lookup is a binary
// search over the 16-byte (8-byte, for sets) entries, and encoding to v2 is
// a copy of the bytes. Summaries are immutable.

// Summary is any decoded or freshly drawn summary the wire formats can
// carry. The interface is satisfied only by this package's summary types:
// combinability checks need access to the underlying seeder.
type Summary interface {
	// InstanceID returns the instance index the summary was drawn for.
	InstanceID() int
	// Kind returns the wire-format kind tag ("pps", "set", "bottomk",
	// "varopt").
	Kind() string
	// Size returns the number of retained keys.
	Size() int

	seederOf() xhash.Seeder
	// stored returns the canonical v2 message and its parsed header — what
	// a query kernel walks and the v2 codec writes; callers must not modify
	// it.
	stored() *summaryData
}

// SummarySeeder returns the randomization a summary was drawn under.
func SummarySeeder(s Summary) xhash.Seeder { return s.seederOf() }

// WireSize returns the length of a summary's v2 encoding — the bytes it
// occupies in memory, and what a full scan of it reads.
func WireSize(s Summary) int { return len(s.stored().data) }

// Combinable reports whether two summaries share the same randomization
// and can be queried together.
func Combinable(a, b interface{ seederOf() xhash.Seeder }) bool {
	return a.seederOf() == b.seederOf()
}

// entry is one retained key on its way into a summary, with the bits of
// its value (0 for a set member).
type entry struct{ key, bits uint64 }

func (a entry) compare(b entry) int { return cmp.Compare(a.key, b.key) }

// summaryData is the state every summary kind shares: the canonical v2
// message and the header fields parsed out of it.
type summaryData struct {
	data     []byte // the complete canonical wire message
	entries  []byte // its entry region (n × entry-size bytes)
	n        int
	instance int
	seeder   xhash.Seeder
}

// newSummaryData encodes a summary's canonical message from its entries,
// which must be in strictly ascending key order. fam is the rank-family
// tag of a bottom-k summary, param the kind's float parameter.
func newSummaryData(kind byte, seeder xhash.Seeder, instance int, fam byte, param float64, es []entry) summaryData {
	size := v2EntrySize(kind)
	data := appendHeaderV2(make([]byte, 0, v2MaxHeader+size*len(es)), kind, seeder, instance, fam, param, len(es))
	head := len(data)
	for _, e := range es {
		data = binary.LittleEndian.AppendUint64(data, e.key)
		if size == 16 {
			data = binary.LittleEndian.AppendUint64(data, e.bits)
		}
	}
	return summaryData{data: data, entries: data[head:], n: len(es), instance: instance, seeder: seeder}
}

// InstanceID implements Summary.
func (d *summaryData) InstanceID() int { return d.instance }

// Size implements Summary.
func (d *summaryData) Size() int { return d.n }

func (d *summaryData) seederOf() xhash.Seeder { return d.seeder }

func (d *summaryData) stored() *summaryData { return d }

// weightedKeyAt reads the key of 16-byte entry i.
//
//summarylint:hot
func (d *summaryData) weightedKeyAt(i int) uint64 {
	return binary.LittleEndian.Uint64(d.entries[i*16:])
}

// weightedValueAt reads the value of 16-byte entry i.
//
//summarylint:hot
func (d *summaryData) weightedValueAt(i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(d.entries[i*16+8:]))
}

// lookupWeighted binary-searches the 16-byte entries for key h. Keys are
// strictly ascending, so the search is exact.
//
//summarylint:hot
func (d *summaryData) lookupWeighted(h dataset.Key) (float64, bool) {
	//summarylint:ignore the sort.Search predicate captures only d and does not escape, so it stays on the stack (benchgate pins 0 allocs/op)
	i := sort.Search(d.n, func(i int) bool { return d.weightedKeyAt(i) >= uint64(h) })
	if i < d.n && d.weightedKeyAt(i) == uint64(h) {
		return d.weightedValueAt(i), true
	}
	return 0, false
}

// AppendKeys appends every retained key, ascending, to dst. Every summary
// kind has it: a key leads each entry, whatever the entry's size (which the
// loop's step divides out only once there is an entry to step over).
func (d *summaryData) AppendKeys(dst []dataset.Key) []dataset.Key {
	for off := 0; off < len(d.entries); off += len(d.entries) / d.n {
		dst = append(dst, dataset.Key(binary.LittleEndian.Uint64(d.entries[off:])))
	}
	return dst
}

// weightedValues copies the 16-byte entries into the map the v1 JSON
// encoding is marshalled from.
func (d *summaryData) weightedValues() map[dataset.Key]float64 {
	vals := make(map[dataset.Key]float64, d.n)
	for i := 0; i < d.n; i++ {
		vals[dataset.Key(d.weightedKeyAt(i))] = d.weightedValueAt(i)
	}
	return vals
}

// weightedSubsetSum sums v / InclusionProb(v) over the selected 16-byte
// entries in ascending key order, so equal summaries produce bit-identical
// estimates on every run.
//
//summarylint:hot
func (d *summaryData) weightedSubsetSum(fam sampling.RankFamily, tau float64, sel func(dataset.Key) bool) float64 {
	total := 0.0
	for i := 0; i < d.n; i++ {
		if sel != nil && !sel(dataset.Key(d.weightedKeyAt(i))) {
			continue
		}
		val := d.weightedValueAt(i)
		if p := fam.InclusionProb(val, tau); p > 0 {
			total += val / p
		}
	}
	return total
}

// weightedEntries returns a sample's entries in ascending key order.
func weightedEntries(values map[dataset.Key]float64) []entry {
	es := make([]entry, 0, len(values))
	for h, v := range values {
		es = append(es, entry{uint64(h), math.Float64bits(v)})
	}
	slices.SortFunc(es, entry.compare)
	return es
}

// PPSSummary is a weighted Poisson PPS summary of a single instance: the
// sampled keys with exact values, plus everything needed to recompute
// inclusion probabilities and seeds.
type PPSSummary struct {
	summaryData
	tau float64
}

func newPPSSummary(seeder xhash.Seeder, instance int, tau float64, values map[dataset.Key]float64) *PPSSummary {
	return &PPSSummary{
		summaryData: newSummaryData(v2KindPPS, seeder, instance, 0, tau, weightedEntries(values)),
		tau:         tau,
	}
}

// Kind implements Summary.
func (p *PPSSummary) Kind() string { return "pps" }

// PPSTau implements PPSReader.
func (p *PPSSummary) PPSTau() float64 { return p.tau }

// Lookup implements PPSReader.
func (p *PPSSummary) Lookup(h dataset.Key) (float64, bool) { return p.lookupWeighted(h) }

// SubsetSum estimates the single-instance subset sum Σ_{h∈sel} v(h) with
// inverse-probability (HT) weights; a nil sel selects all keys. In rank
// terms the PPS threshold is 1/tau.
func (p *PPSSummary) SubsetSum(sel func(dataset.Key) bool) float64 {
	sum, _ := ppsSumVarianceTerms(&p.summaryData, p.tau, sel)
	return sum
}

// SetSummary is a summary of a binary instance (a set of active keys):
// Poisson sampling with probability p over the members, with known seeds.
type SetSummary struct {
	summaryData
	p float64
}

// newSetSummary builds a set summary from its sampled members, in any
// order; a member listed twice counts once.
func newSetSummary(seeder xhash.Seeder, instance int, p float64, members []dataset.Key) *SetSummary {
	es := make([]entry, len(members))
	for i, h := range members {
		es[i].key = uint64(h)
	}
	slices.SortFunc(es, entry.compare)
	return &SetSummary{summaryData: newSummaryData(v2KindSet, seeder, instance, 0, p, slices.Compact(es)), p: p}
}

// Kind implements Summary.
func (s *SetSummary) Kind() string { return "set" }

// SetP implements SetReader.
func (s *SetSummary) SetP() float64 { return s.p }

func (s *SetSummary) memberAt(i int) uint64 {
	return binary.LittleEndian.Uint64(s.entries[i*8:])
}

// Contains implements SetReader.
func (s *SetSummary) Contains(h dataset.Key) bool {
	i := sort.Search(s.n, func(i int) bool { return s.memberAt(i) >= uint64(h) })
	return i < s.n && s.memberAt(i) == uint64(h)
}

// BottomKSummary is a bottom-k (order) summary of one instance: the k
// lowest-ranked keys and the conditioning threshold.
type BottomKSummary struct {
	summaryData
	fam sampling.RankFamily
	tau float64
}

// newBottomKSummary builds a bottom-k summary from a sample drawn with the
// PPS or EXP rank family, the two the wire formats name.
func newBottomKSummary(seeder xhash.Seeder, instance int, sample *sampling.WeightedSample) *BottomKSummary {
	tag, ok := v2FamilyTag(sample.Family)
	if !ok {
		panic("core: bottom-k summary of unknown rank family " + sample.Family.Name())
	}
	return &BottomKSummary{
		summaryData: newSummaryData(v2KindBottomK, seeder, instance, tag, sample.Tau, weightedEntries(sample.Values)),
		fam:         sample.Family,
		tau:         sample.Tau,
	}
}

// Kind implements Summary.
func (b *BottomKSummary) Kind() string { return "bottomk" }

// RankTau implements BottomKReader.
func (b *BottomKSummary) RankTau() float64 { return b.tau }

// RankFam implements BottomKReader.
func (b *BottomKSummary) RankFam() sampling.RankFamily { return b.fam }

// Lookup implements BottomKReader.
func (b *BottomKSummary) Lookup(h dataset.Key) (float64, bool) { return b.lookupWeighted(h) }

// SubsetSum estimates Σ_{h∈sel} v(h) with the rank-conditioning estimator.
func (b *BottomKSummary) SubsetSum(sel func(dataset.Key) bool) float64 {
	return b.weightedSubsetSum(b.fam, b.tau, sel)
}

// VarOptSummary is a VarOpt_k summary of a single instance. Entries carry
// the original weights; adjusted weights are the identity max(w, tau)
// applied at read time.
type VarOptSummary struct {
	summaryData
	tau float64
}

func newVarOptSummary(seeder xhash.Seeder, instance int, tau float64, original map[dataset.Key]float64) *VarOptSummary {
	return &VarOptSummary{
		summaryData: newSummaryData(v2KindVarOpt, seeder, instance, 0, tau, weightedEntries(original)),
		tau:         tau,
	}
}

// Kind implements Summary.
func (v *VarOptSummary) Kind() string { return "varopt" }

// VarOptTau implements varOptReader.
func (v *VarOptSummary) VarOptTau() float64 { return v.tau }

// SubsetSum estimates Σ_{h∈sel} v(h) by summing adjusted weights in
// ascending key order (nil sel selects all keys; the all-keys sum is the
// exact stream total).
//
//summarylint:hot
func (v *VarOptSummary) SubsetSum(sel func(dataset.Key) bool) float64 {
	total := 0.0
	for i := 0; i < v.n; i++ {
		if sel != nil && !sel(dataset.Key(v.weightedKeyAt(i))) {
			continue
		}
		total += math.Max(v.weightedValueAt(i), v.tau)
	}
	return total
}
