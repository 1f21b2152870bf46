package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/estimator"
	"repro/internal/sampling"
	"repro/internal/xhash"
)

// The summaries as they stood before canonical v2 bytes became the one
// in-memory form: a Go map per summary, from which every walk builds the
// canonical entries afresh. They satisfy the sealed reader interfaces, so the
// differential tests can run the kernels over them, over the production
// summaries, and over mixtures of the two, and hold every answer against
// the reference loops below run over these maps.

type refSummary struct {
	instance int
	seeder   xhash.Seeder
}

func (r refSummary) InstanceID() int        { return r.instance }
func (r refSummary) seederOf() xhash.Seeder { return r.seeder }

// refWeighted is the map-backed half shared by the weighted kinds.
type refWeighted struct {
	refSummary
	values map[dataset.Key]float64
}

func (r *refWeighted) Size() int { return len(r.values) }

func (r *refWeighted) Lookup(h dataset.Key) (float64, bool) {
	v, ok := r.values[h]
	return v, ok
}

func (r *refWeighted) AppendKeys(dst []dataset.Key) []dataset.Key {
	for h := range r.values {
		dst = append(dst, h)
	}
	return dst
}

// stored encodes the map as canonical entries. The kernels read nothing
// else of what they are handed, so the header's kind and parameter are
// placeholders.
func (r *refWeighted) stored() *summaryData {
	return &newPPSSummary(r.seeder, r.instance, 0, weightedEntries(r.values)).summaryData
}

type refPPS struct {
	refWeighted
	tau float64
}

func (r *refPPS) Kind() string    { return "pps" }
func (r *refPPS) PPSTau() float64 { return r.tau }
func (r *refPPS) SubsetSum(sel func(dataset.Key) bool) float64 {
	return subsetSumRef(r.values, sampling.PPS{}, 1/r.tau, sel)
}

type refBottomK struct {
	refWeighted
	fam sampling.RankFamily
	tau float64
}

func (r *refBottomK) Kind() string                 { return "bottomk" }
func (r *refBottomK) RankTau() float64             { return r.tau }
func (r *refBottomK) RankFam() sampling.RankFamily { return r.fam }
func (r *refBottomK) SubsetSum(sel func(dataset.Key) bool) float64 {
	return subsetSumRef(r.values, r.fam, r.tau, sel)
}

type refSet struct {
	refSummary
	p       float64
	members map[dataset.Key]bool
}

func (r *refSet) Kind() string                { return "set" }
func (r *refSet) Size() int                   { return len(r.members) }
func (r *refSet) SetP() float64               { return r.p }
func (r *refSet) Contains(h dataset.Key) bool { return r.members[h] }

func (r *refSet) AppendKeys(dst []dataset.Key) []dataset.Key {
	for h := range r.members {
		dst = append(dst, h)
	}
	return dst
}

func (r *refSet) stored() *summaryData {
	return &newSetSummary(r.seeder, r.instance, r.p, r.AppendKeys(nil)).summaryData
}

var (
	_ PPSReader     = (*refPPS)(nil)
	_ BottomKReader = (*refBottomK)(nil)
	_ SetReader     = (*refSet)(nil)
)

// The query functions as they stood before the merge-join kernels, bodies
// verbatim: materialise the key union, sort.Slice it, and per key allocate
// an outcome and search every summary. They are the differential reference
// (FuzzQueryKernelsDiff, TestQueryDiffGenerated): the kernels must answer
// with the same bits, counts and error text, because they produce the same
// per-key terms in the same ascending key order.

func checkCombinableRef[S Summary](sums []S, min int) error {
	if len(sums) < min {
		return fmt.Errorf("core: query needs at least %d summaries, got %d", min, len(sums))
	}
	seen := make(map[int]bool, len(sums))
	for _, s := range sums {
		if s.seederOf() != sums[0].seederOf() {
			return fmt.Errorf("core: summaries use different randomizations")
		}
		if seen[s.InstanceID()] {
			return fmt.Errorf("core: duplicate instance %d", s.InstanceID())
		}
		seen[s.InstanceID()] = true
	}
	return nil
}

func unionReaderKeysRef[R interface {
	AppendKeys([]dataset.Key) []dataset.Key
}](rs ...R) []dataset.Key {
	var keys []dataset.Key
	for _, r := range rs {
		keys = r.AppendKeys(keys)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	// Dedup in place: the slice is sorted, so duplicates are adjacent.
	out := keys[:0]
	for i, h := range keys {
		if i == 0 || h != keys[i-1] {
			out = append(out, h)
		}
	}
	return out
}

func sortKeysRef(keys []dataset.Key) []dataset.Key {
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func maxDominanceReadersRef(s1, s2 PPSReader, sel func(dataset.Key) bool) (MaxDominanceEstimate, error) {
	if err := checkCombinableRef([]Summary{s1, s2}, 2); err != nil {
		return MaxDominanceEstimate{}, err
	}
	tau := []float64{s1.PPSTau(), s2.PPSTau()}
	seeder := s1.seederOf()
	var out MaxDominanceEstimate
	for _, h := range unionReaderKeysRef[PPSReader](s1, s2) {
		if sel != nil && !sel(h) {
			continue
		}
		o := estimator.PPSOutcome{
			Tau: tau,
			U: []float64{
				seeder.Seed(s1.InstanceID(), uint64(h)),
				seeder.Seed(s2.InstanceID(), uint64(h)),
			},
			Sampled: make([]bool, 2),
			Values:  make([]float64, 2),
		}
		if v, ok := s1.Lookup(h); ok {
			o.Sampled[0], o.Values[0] = true, v
		}
		if v, ok := s2.Lookup(h); ok {
			o.Sampled[1], o.Values[1] = true, v
		}
		out.HT += estimator.MaxHTPPS(o)
		out.L += estimator.MaxL2PPS(o)
		out.KeysUsed++
	}
	return out, nil
}

func distinctCountReadersRef(s1, s2 SetReader, sel func(dataset.Key) bool) (DistinctEstimate, error) {
	if err := checkCombinableRef([]Summary{s1, s2}, 2); err != nil {
		return DistinctEstimate{}, err
	}
	seeder := s1.seederOf()
	var c estimator.DistinctCounts
	for _, h := range unionReaderKeysRef[SetReader](s1, s2) {
		if sel != nil && !sel(h) {
			continue
		}
		c.Add(estimator.Categorize(
			s1.Contains(h), s2.Contains(h),
			seeder.Seed(s1.InstanceID(), uint64(h)),
			seeder.Seed(s2.InstanceID(), uint64(h)),
			s1.SetP(), s2.SetP(),
		))
	}
	e := estimator.DistinctEstimator{P1: s1.SetP(), P2: s2.SetP()}
	return DistinctEstimate{HT: e.HT(c), L: e.L(c), Counts: c}, nil
}

func distinctCountMultiReadersRef(sums []SetReader, sel func(dataset.Key) bool) (MultiDistinctEstimate, error) {
	if err := checkCombinableRef(sums, 2); err != nil {
		return MultiDistinctEstimate{}, err
	}
	if len(sums) == 2 {
		est, err := distinctCountReadersRef(sums[0], sums[1], sel)
		if err != nil {
			return MultiDistinctEstimate{}, err
		}
		return MultiDistinctEstimate{HT: est.HT, L: est.L, KeysUsed: est.Counts.Sampled()}, nil
	}
	r := len(sums)
	p := sums[0].SetP()
	for _, s := range sums[1:] {
		if s.SetP() != p {
			return MultiDistinctEstimate{}, fmt.Errorf(
				"core: distinct count over %d summaries needs a uniform sampling probability, got %v and %v",
				r, p, s.SetP())
		}
	}
	est, err := estimator.ORLUniform(r, p)
	if err != nil {
		return MultiDistinctEstimate{}, err
	}
	seeder := sums[0].seederOf()
	htCoeff := 1.0
	for i := 0; i < r; i++ {
		htCoeff *= p
	}
	var out MultiDistinctEstimate
	for _, h := range unionReaderKeysRef(sums...) {
		if sel != nil && !sel(h) {
			continue
		}
		o := estimator.BinaryKnownSeedsOutcome{
			P:       make([]float64, r),
			U:       make([]float64, r),
			Sampled: make([]bool, r),
		}
		inAnySample := false
		allSeedsLow := true
		for i, s := range sums {
			o.P[i] = p
			o.U[i] = seeder.Seed(s.InstanceID(), uint64(h))
			// Summaries hold the *sampled* members, so membership in the
			// summary is exactly "member and seed below p".
			o.Sampled[i] = s.Contains(h)
			if o.Sampled[i] {
				inAnySample = true
			}
			if o.U[i] >= p {
				allSeedsLow = false
			}
		}
		if !inAnySample {
			continue
		}
		out.KeysUsed++
		out.L += est.Estimate(o.ToOblivious())
		if allSeedsLow {
			out.HT += 1 / htCoeff
		}
	}
	return out, nil
}

func ppsSumStdErrRef(s PPSReader) float64 {
	tau := s.PPSTau()
	if !(tau > 0) {
		return 0
	}
	var keys []dataset.Key
	keys = sortKeysRef(s.AppendKeys(keys))
	variance := 0.0
	for _, h := range keys {
		v, ok := s.Lookup(h)
		if !ok || v <= 0 {
			continue
		}
		p := math.Min(1, v/tau)
		if p < 1 {
			variance += v * v * (1/p - 1) / p
		}
	}
	return math.Sqrt(variance)
}

func bottomKDistinctRef(b BottomKReader) float64 {
	tau := b.RankTau()
	fam := b.RankFam()
	var keys []dataset.Key
	keys = sortKeysRef(b.AppendKeys(keys))
	if math.IsInf(tau, 1) {
		return float64(len(keys))
	}
	total := 0.0
	for _, h := range keys {
		v, ok := b.Lookup(h)
		if !ok {
			continue
		}
		p := fam.InclusionProb(v, tau)
		if p > 0 {
			total += 1 / p
		}
	}
	return total
}

// subsetSumRef is sampling.WeightedSample.SubsetSum — what the SubsetSum
// of a map-backed PPS or bottom-k summary called — before its key sort
// moved off sort.Slice, over the sample's values map and its rank family
// and threshold.
func subsetSumRef(values map[dataset.Key]float64, fam sampling.RankFamily, tau float64, sel func(dataset.Key) bool) float64 {
	keys := make([]dataset.Key, 0, len(values))
	for h := range values {
		keys = append(keys, h)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	total := 0.0
	for _, h := range keys {
		if sel != nil && !sel(h) {
			continue
		}
		v := values[h]
		p := fam.InclusionProb(v, tau)
		if p > 0 {
			total += v / p
		}
	}
	return total
}
