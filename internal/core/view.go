package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/sampling"
	"repro/internal/xhash"
)

// Zero-copy summary views. A v2 wire message already IS a queryable data
// structure: fixed-width entries sorted by key. Hydrating it into Go maps
// costs one allocation per key plus hashing on every later lookup — pure
// overhead for a summary that is stored once and queried many times. The
// views below implement the Summary and Reader interfaces directly over
// the wire bytes: a query decodes the entry region front to back into its
// ascending column (loadColumn — the entries are already in merge order,
// so nothing is sorted), point lookups are a binary search over the
// 16-byte (or 8-byte, for sets) entries, and re-encoding to v2 is a raw
// byte copy. Every query answers bit-identically to the hydrated decode of
// the same bytes — views change the representation, never the estimates
// (pinned by view_test.go).
//
// Views are strict about their input where the streaming decoder is
// lenient: ParseSummaryView accepts only the CANONICAL encoding —
// minimal varints, strictly ascending keys, no trailing bytes — i.e.
// exactly the bytes encodeSummaryV2 produces. That is what makes the
// raw-copy re-encode legal (the bytes already are the canonical
// encoding). A valid-but-non-canonical payload fails the parse and the
// caller falls back to the hydrating decoder, which remains the arbiter
// of wire validity.

// viewData is the state every view kind shares: the complete wire message
// (kept alive for raw-copy re-encoding) and the parsed header fields.
type viewData struct {
	data     []byte // the full canonical wire message
	entries  []byte // the entry region (n × entry-size bytes)
	n        int
	instance int
	seeder   xhash.Seeder
}

// wireBytes returns the canonical v2 encoding the view was parsed from.
func (v *viewData) wireBytes() []byte { return v.data }

// InstanceID implements Summary.
func (v *viewData) InstanceID() int { return v.instance }

// Size implements Summary.
func (v *viewData) Size() int { return v.n }

func (v *viewData) seederOf() xhash.Seeder { return v.seeder }

// weightedKeyAt reads the key of 16-byte entry i.
//
//summarylint:hot
func (v *viewData) weightedKeyAt(i int) uint64 {
	return binary.LittleEndian.Uint64(v.entries[i*16:])
}

// weightedValueAt reads the value of 16-byte entry i.
//
//summarylint:hot
func (v *viewData) weightedValueAt(i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(v.entries[i*16+8:]))
}

// lookupWeighted binary-searches the 16-byte entries for key h. Keys are
// strictly ascending (enforced at parse), so the search is exact.
//
//summarylint:hot
func (v *viewData) lookupWeighted(h dataset.Key) (float64, bool) {
	//summarylint:ignore the sort.Search predicate captures only v and does not escape, so it stays on the stack (benchgate pins 0 allocs/op)
	i := sort.Search(v.n, func(i int) bool { return v.weightedKeyAt(i) >= uint64(h) })
	if i < v.n && v.weightedKeyAt(i) == uint64(h) {
		return v.weightedValueAt(i), true
	}
	return 0, false
}

// appendWeightedKeys appends the 16-byte entries' keys (already
// ascending) to dst.
func (v *viewData) appendWeightedKeys(dst []dataset.Key) []dataset.Key {
	for i := 0; i < v.n; i++ {
		dst = append(dst, dataset.Key(v.weightedKeyAt(i)))
	}
	return dst
}

// loadWeightedColumn decodes the 16-byte entries into c. They are strictly
// ascending on the wire (enforced at parse), so the column needs no sort.
//
//summarylint:hot
func (v *viewData) loadWeightedColumn(c *column) {
	c.keys, c.vals = resize(c.keys, v.n), resize(c.vals, v.n)
	for i := range c.keys {
		c.keys[i] = v.weightedKeyAt(i)
		c.vals[i] = v.weightedValueAt(i)
	}
}

// weightedValues materializes the 16-byte entries into a map (the
// hydrating escape hatch behind MarshalJSON).
func (v *viewData) weightedValues() map[dataset.Key]float64 {
	vals := make(map[dataset.Key]float64, v.n)
	for i := 0; i < v.n; i++ {
		vals[dataset.Key(v.weightedKeyAt(i))] = v.weightedValueAt(i)
	}
	return vals
}

// PPSView is a zero-copy PPS summary over v2 wire bytes.
type PPSView struct {
	viewData
	tau float64
	// rankTau is 1/tau, precomputed with the exact float division the
	// hydrating decoder performs, so inclusion probabilities — and through
	// them every estimate — match the decoded summary bit for bit.
	rankTau float64
}

// Kind implements Summary.
func (v *PPSView) Kind() string { return "pps" }

// PPSTau implements PPSReader.
func (v *PPSView) PPSTau() float64 { return v.tau }

// Lookup implements PPSReader.
func (v *PPSView) Lookup(h dataset.Key) (float64, bool) { return v.lookupWeighted(h) }

// AppendKeys implements PPSReader.
func (v *PPSView) AppendKeys(dst []dataset.Key) []dataset.Key { return v.appendWeightedKeys(dst) }

func (v *PPSView) loadColumn(c *column) { v.loadWeightedColumn(c) }

// SubsetSum implements PPSReader: the HT estimate, accumulated in
// ascending key order directly off the wire.
func (v *PPSView) SubsetSum(sel func(dataset.Key) bool) float64 {
	return weightedSubsetSum(&v.viewData, sampling.PPS{}, v.rankTau, sel)
}

// materialize hydrates the view into the map-backed summary type.
func (v *PPSView) materialize() *PPSSummary {
	return &PPSSummary{
		Instance: v.instance,
		Tau:      v.tau,
		Sample:   &sampling.WeightedSample{Values: v.weightedValues(), Tau: v.rankTau, Family: sampling.PPS{}},
		parent:   &Summarizer{seeder: v.seeder},
	}
}

// MarshalJSON implements the v1 codec by materializing; JSON encoding
// cannot reuse the binary bytes anyway.
func (v *PPSView) MarshalJSON() ([]byte, error) { return v.materialize().MarshalJSON() }

// SetView is a zero-copy set summary over v2 wire bytes (8-byte entries).
type SetView struct {
	viewData
	p float64
}

// Kind implements Summary.
func (v *SetView) Kind() string { return "set" }

// SetP implements SetReader.
func (v *SetView) SetP() float64 { return v.p }

func (v *SetView) memberAt(i int) uint64 {
	return binary.LittleEndian.Uint64(v.entries[i*8:])
}

// Contains implements SetReader.
func (v *SetView) Contains(h dataset.Key) bool {
	i := sort.Search(v.n, func(i int) bool { return v.memberAt(i) >= uint64(h) })
	return i < v.n && v.memberAt(i) == uint64(h)
}

// AppendKeys implements SetReader.
func (v *SetView) AppendKeys(dst []dataset.Key) []dataset.Key {
	for i := 0; i < v.n; i++ {
		dst = append(dst, dataset.Key(v.memberAt(i)))
	}
	return dst
}

// loadColumn decodes the 8-byte member entries (ascending on the wire)
// into c.
//
//summarylint:hot
func (v *SetView) loadColumn(c *column) {
	c.keys = resize(c.keys, v.n)
	for i := range c.keys {
		c.keys[i] = v.memberAt(i)
	}
}

// materialize hydrates the view into the map-backed summary type.
func (v *SetView) materialize() *SetSummary {
	members := make(map[dataset.Key]bool, v.n)
	for i := 0; i < v.n; i++ {
		members[dataset.Key(v.memberAt(i))] = true
	}
	return &SetSummary{
		Instance: v.instance,
		P:        v.p,
		Members:  members,
		parent:   &Summarizer{seeder: v.seeder},
	}
}

// MarshalJSON implements the v1 codec by materializing.
func (v *SetView) MarshalJSON() ([]byte, error) { return v.materialize().MarshalJSON() }

// BottomKView is a zero-copy bottom-k summary over v2 wire bytes.
type BottomKView struct {
	viewData
	fam sampling.RankFamily
	tau float64
}

// Kind implements Summary.
func (v *BottomKView) Kind() string { return "bottomk" }

// RankTau implements BottomKReader.
func (v *BottomKView) RankTau() float64 { return v.tau }

// RankFam implements BottomKReader.
func (v *BottomKView) RankFam() sampling.RankFamily { return v.fam }

// Lookup implements BottomKReader.
func (v *BottomKView) Lookup(h dataset.Key) (float64, bool) { return v.lookupWeighted(h) }

// AppendKeys implements BottomKReader.
func (v *BottomKView) AppendKeys(dst []dataset.Key) []dataset.Key { return v.appendWeightedKeys(dst) }

func (v *BottomKView) loadColumn(c *column) { v.loadWeightedColumn(c) }

// SubsetSum implements BottomKReader: the rank-conditioning estimate,
// accumulated in ascending key order directly off the wire.
func (v *BottomKView) SubsetSum(sel func(dataset.Key) bool) float64 {
	return weightedSubsetSum(&v.viewData, v.fam, v.tau, sel)
}

// materialize hydrates the view into the map-backed summary type.
func (v *BottomKView) materialize() *BottomKSummary {
	return &BottomKSummary{
		Instance: v.instance,
		Sample:   &sampling.WeightedSample{Values: v.weightedValues(), Tau: v.tau, Family: v.fam},
		parent:   &Summarizer{seeder: v.seeder},
	}
}

// MarshalJSON implements the v1 codec by materializing.
func (v *BottomKView) MarshalJSON() ([]byte, error) { return v.materialize().MarshalJSON() }

// VarOptView is a zero-copy VarOpt_k summary over v2 wire bytes. Entries
// carry the original weights; adjusted weights are the identity
// max(w, tau) applied at read time.
type VarOptView struct {
	viewData
	tau float64
}

// Kind implements Summary.
func (v *VarOptView) Kind() string { return "varopt" }

// VarOptTau implements VarOptReader.
func (v *VarOptView) VarOptTau() float64 { return v.tau }

// SubsetSum implements VarOptReader: adjusted weights summed in ascending
// key order directly off the wire.
//
//summarylint:hot
func (v *VarOptView) SubsetSum(sel func(dataset.Key) bool) float64 {
	total := 0.0
	for i := 0; i < v.n; i++ {
		h := dataset.Key(v.weightedKeyAt(i))
		if sel != nil && !sel(h) {
			continue
		}
		total += math.Max(v.weightedValueAt(i), v.tau)
	}
	return total
}

// materialize hydrates the view into the map-backed summary type.
func (v *VarOptView) materialize() *VarOptSummary {
	return &VarOptSummary{
		Instance: v.instance,
		Sample:   varOptSampleFromWire(v.weightedValues(), v.tau),
		parent:   &Summarizer{seeder: v.seeder},
	}
}

// MarshalJSON implements the v1 codec by materializing.
func (v *VarOptView) MarshalJSON() ([]byte, error) { return v.materialize().MarshalJSON() }

// weightedSubsetSum is WeightedSample.SubsetSum over wire entries: the
// same per-key terms (v / InclusionProb(v)) in the same ascending order,
// so the result is bit-identical to the hydrated estimate.
//
//summarylint:hot
func weightedSubsetSum(v *viewData, fam sampling.RankFamily, tau float64, sel func(dataset.Key) bool) float64 {
	total := 0.0
	for i := 0; i < v.n; i++ {
		h := dataset.Key(v.weightedKeyAt(i))
		if sel != nil && !sel(h) {
			continue
		}
		val := v.weightedValueAt(i)
		if p := fam.InclusionProb(val, tau); p > 0 {
			total += val / p
		}
	}
	return total
}

// SummaryRepr reports the representation a stored summary answers
// queries from: "view" plus the canonical wire length for zero-copy v2
// views (bytes touched by a full scan), or "hydrated" with 0 for
// map-backed summaries — the query-explain face of the two paths.
func SummaryRepr(s Summary) (path string, wireBytes int) {
	if v, ok := s.(interface{ wireBytes() []byte }); ok {
		return "view", len(v.wireBytes())
	}
	return "hydrated", 0
}

// DecodeSummaryViewFrom reads one complete v2 message from r and returns
// the zero-copy view over its bytes. Canonical payloads — everything a
// conforming encoder produces — take the zero-copy path; a valid but
// non-canonical payload falls back to the hydrating v2 decoder, which
// stays the arbiter of wire validity (and of the error when the payload
// is invalid either way). Exactly one summary per stream: trailing bytes
// are an error on both paths.
func DecodeSummaryViewFrom(r io.Reader) (Summary, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading summary: %w", err)
	}
	if v, err := ParseSummaryView(data); err == nil {
		return v, nil
	}
	br := bufio.NewReader(bytes.NewReader(data))
	s, err := decodeSummaryV2(br, false)
	if err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("core: trailing data after v2 summary")
	}
	return s, nil
}

// viewParser walks a complete byte slice with canonical-encoding checks.
type viewParser struct {
	data []byte
	off  int
}

func (p *viewParser) need(n int) ([]byte, error) {
	if len(p.data)-p.off < n {
		return nil, fmt.Errorf("core: summary view: truncated at offset %d", p.off)
	}
	b := p.data[p.off : p.off+n]
	p.off += n
	return b, nil
}

func (p *viewParser) byte() (byte, error) {
	b, err := p.need(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (p *viewParser) uint64() (uint64, error) {
	b, err := p.need(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (p *viewParser) float64() (float64, error) {
	bits, err := p.uint64()
	return math.Float64frombits(bits), err
}

// varint reads a signed varint and rejects non-minimal encodings — the
// canonical-bytes discipline raw-copy re-encoding relies on.
func (p *viewParser) varint() (int64, error) {
	v, n := binary.Varint(p.data[p.off:])
	if n <= 0 {
		return 0, fmt.Errorf("core: summary view: bad varint at offset %d", p.off)
	}
	var scratch [binary.MaxVarintLen64]byte
	if binary.PutVarint(scratch[:], v) != n {
		return 0, fmt.Errorf("core: summary view: non-canonical varint at offset %d", p.off)
	}
	p.off += n
	return v, nil
}

// uvarint reads an unsigned varint, rejecting non-minimal encodings.
func (p *viewParser) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.data[p.off:])
	if n <= 0 {
		return 0, fmt.Errorf("core: summary view: bad uvarint at offset %d", p.off)
	}
	var scratch [binary.MaxVarintLen64]byte
	if binary.PutUvarint(scratch[:], v) != n {
		return 0, fmt.Errorf("core: summary view: non-canonical uvarint at offset %d", p.off)
	}
	p.off += n
	return v, nil
}

// entryRegion validates and returns the rest of the buffer as n entries of
// the given size, consuming the parser to the end.
func (p *viewParser) entryRegion(n uint64, size int) ([]byte, error) {
	rest := len(p.data) - p.off
	if n > uint64(rest)/uint64(size) {
		return nil, fmt.Errorf("core: summary view: %d entries exceed the %d remaining bytes", n, rest)
	}
	want := int(n) * size
	if rest != want {
		return nil, fmt.Errorf("core: summary view: %d trailing bytes after entries", rest-want)
	}
	entries := p.data[p.off:]
	p.off = len(p.data)
	return entries, nil
}

// checkEntries verifies, in one walk of the entry region, that keys are
// strictly ascending (which also rules out duplicates) — both the
// canonical-encoding requirement and what makes ordered merges and
// binary-search lookups correct — and, for the 16-byte weighted entries,
// that every value is a finite non-negative number.
func checkEntries(entries []byte, n, size int) error {
	var prev uint64
	for i := 0; i < n; i++ {
		e := entries[i*size:]
		k := binary.LittleEndian.Uint64(e)
		if i > 0 && k <= prev {
			return fmt.Errorf("core: summary view: entry keys not strictly ascending at index %d", i)
		}
		prev = k
		if size == 16 {
			if err := checkEntryValue(k, math.Float64frombits(binary.LittleEndian.Uint64(e[8:]))); err != nil {
				return err
			}
		}
	}
	return nil
}

// ParseSummaryView parses a complete v2 wire message into a zero-copy
// view, validating the CANONICAL encoding: exact magic and version,
// minimal varints, parameter ranges, strictly ascending entry keys, finite
// non-negative entry values, and no trailing bytes. The returned Summary
// is backed by data — the caller must not mutate the slice afterwards. Any
// deviation from the canonical form is an error; callers that want maximal
// acceptance fall back to DecodeSummary, which hydrates leniently.
func ParseSummaryView(data []byte) (Summary, error) {
	p := &viewParser{data: data}
	head, err := p.need(5)
	if err != nil {
		return nil, err
	}
	if head[0] != v2Magic0 || head[1] != v2Magic1 {
		return nil, fmt.Errorf("core: summary view: bad magic %#02x %#02x", head[0], head[1])
	}
	if head[2] != 2 {
		return nil, fmt.Errorf("core: summary view: binary summary version %d (supported: %v): %w",
			head[2], SupportedWireVersions(), ErrUnknownVersion)
	}
	kind, flags := head[3], head[4]
	if flags&^v2FlagShared != 0 {
		return nil, fmt.Errorf("core: summary view: undefined flag bits %#02x", flags)
	}
	salt, err := p.uint64()
	if err != nil {
		return nil, err
	}
	instance, err := p.varint()
	if err != nil {
		return nil, err
	}
	if int64(int(instance)) != instance {
		return nil, fmt.Errorf("core: summary view: instance %d out of range", instance)
	}
	vd := viewData{
		data:     data,
		instance: int(instance),
		seeder:   xhash.Seeder{Salt: salt, Shared: flags&v2FlagShared != 0},
	}

	// finish consumes the entry count and region shared by every kind.
	finish := func(entrySize int) error {
		n, err := p.uvarint()
		if err != nil {
			return err
		}
		entries, err := p.entryRegion(n, entrySize)
		if err != nil {
			return err
		}
		if err := checkEntries(entries, int(n), entrySize); err != nil {
			return err
		}
		vd.entries, vd.n = entries, int(n)
		return nil
	}

	switch kind {
	case v2KindPPS:
		tau, err := p.float64()
		if err != nil {
			return nil, err
		}
		if !(tau > 0) || math.IsInf(tau, 1) {
			return nil, fmt.Errorf("core: summary view: invalid tau %v", tau)
		}
		if err := finish(16); err != nil {
			return nil, err
		}
		return &PPSView{viewData: vd, tau: tau, rankTau: 1 / tau}, nil
	case v2KindSet:
		pr, err := p.float64()
		if err != nil {
			return nil, err
		}
		if !(pr > 0 && pr <= 1) {
			return nil, fmt.Errorf("core: summary view: invalid sampling probability %v", pr)
		}
		if err := finish(8); err != nil {
			return nil, err
		}
		return &SetView{viewData: vd, p: pr}, nil
	case v2KindBottomK:
		famTag, err := p.byte()
		if err != nil {
			return nil, err
		}
		var fam sampling.RankFamily
		switch famTag {
		case v2FamilyPPS:
			fam = sampling.PPS{}
		case v2FamilyEXP:
			fam = sampling.EXP{}
		default:
			return nil, fmt.Errorf("core: summary view: unknown rank family tag %d", famTag)
		}
		tau, err := p.float64()
		if err != nil {
			return nil, err
		}
		if !(tau > 0) {
			return nil, fmt.Errorf("core: summary view: invalid rank threshold %v", tau)
		}
		if err := finish(16); err != nil {
			return nil, err
		}
		return &BottomKView{viewData: vd, fam: fam, tau: tau}, nil
	case v2KindVarOpt:
		tau, err := p.float64()
		if err != nil {
			return nil, err
		}
		if !(tau >= 0) || math.IsInf(tau, 1) {
			return nil, fmt.Errorf("core: summary view: invalid varopt threshold %v", tau)
		}
		if err := finish(16); err != nil {
			return nil, err
		}
		return &VarOptView{viewData: vd, tau: tau}, nil
	default:
		return nil, fmt.Errorf("core: summary view: unknown kind tag %d", kind)
	}
}
