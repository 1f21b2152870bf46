package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/randx"
	"repro/internal/sampling"
)

// Differential tests of the merge-join query kernels over the production
// summaries against the pre-kernel bodies kept in query_ref_test.go run
// over map-backed reference summaries: every estimate field by
// math.Float64bits, every count, every error text.

// diffCase is one set of r instances seen through every summary kind the
// key-walking queries read, each kind twice: as production summaries and
// as the map-backed references. Both are built directly from entry maps,
// not drawn by a sampler: the kernels must agree with the reference on any
// decodable summary, sampled consistently with its seeds or not.
type diffCase struct {
	pps     []*PPSSummary
	sets    []*SetSummary
	bottomk []*bottomKSummary

	refPPS     []*refPPS
	refSets    []*refSet
	refBottomK []*refBottomK
}

// diffParams are the per-instance kind parameters of a diffCase; each
// slice is indexed modulo its length.
type diffParams struct {
	taus    []float64 // PPS thresholds
	ps      []float64 // set sampling probabilities
	rankTau float64   // bottom-k threshold (+Inf = never thresholded)
	fam     sampling.RankFamily
}

func buildDiffCase(s *Summarizer, ins []dataset.Instance, par diffParams) diffCase {
	var c diffCase
	for i, in := range ins {
		c.add(s, i, in, par.taus[i%len(par.taus)], par.ps[i%len(par.ps)], par)
	}
	return c
}

// add appends instance id's summaries of in, drawn under s.
func (c *diffCase) add(s *Summarizer, id int, in dataset.Instance, tau, p float64, par diffParams) {
	members := make(map[dataset.Key]bool, len(in))
	for h := range in {
		members[h] = true
	}
	es := weightedEntries(in)
	sample := &sampling.WeightedSample{Entries: es, Tau: par.rankTau, Family: par.fam}
	c.pps = append(c.pps, newPPSSummary(s.seeder, id, tau, es))
	c.sets = append(c.sets, newSetSummary(s.seeder, id, p, slices.Collect(maps.Keys(in))))
	c.bottomk = append(c.bottomk, newBottomKSummary(s.seeder, id, sample))

	ref := refSummary{instance: id, seeder: s.seeder}
	c.refPPS = append(c.refPPS, &refPPS{refWeighted{ref, in}, tau})
	c.refSets = append(c.refSets, &refSet{ref, p, members})
	c.refBottomK = append(c.refBottomK, &refBottomK{refWeighted{ref, in}, par.fam, par.rankTau})
}

// What a list of summaries is queried through. The names predate the single
// representation: "hydrated" is the map-backed reference summaries run
// through the kernels, "view" the production summaries.
const (
	reprHydrated = iota
	reprView
	reprMixed // odd positions are production summaries
	numReprs
)

var reprNames = [numReprs]string{"hydrated", "view", "mixed"}

// represent picks, position by position, the production summary or its
// map-backed reference as mode selects, as reader interface R.
func represent[R any, P, M any](prod []P, ref []M, mode int) []R {
	out := make([]R, len(prod))
	for i := range prod {
		if mode == reprView || (mode == reprMixed && i%2 == 1) {
			out[i] = any(prod[i]).(R)
		} else {
			out[i] = any(ref[i]).(R)
		}
	}
	return out
}

// Selections a query is restricted to.
var diffSels = []struct {
	name string
	sel  func(dataset.Key) bool
}{
	{"all", nil},
	{"half", func(h dataset.Key) bool { return h%2 == 0 }},
	{"none", func(dataset.Key) bool { return false }},
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// diffQueries runs every kernel on c through one representation and
// selection, and reports each divergence from the reference loops run over
// the map-backed summaries.
func diffQueries(t *testing.T, c diffCase, mode int, sel func(dataset.Key) bool) {
	t.Helper()
	pps := represent[PPSReader](c.pps, c.refPPS, mode)
	sets := represent[SetReader](c.sets, c.refSets, mode)
	bks := represent[BottomKReader](c.bottomk, c.refBottomK, mode)
	refSets := represent[SetReader](c.sets, c.refSets, reprHydrated)

	for i := 0; i+1 < len(pps); i++ {
		got, gerr := MaxDominanceReaders(pps[i], pps[i+1], sel)
		want, werr := maxDominanceReadersRef(c.refPPS[i], c.refPPS[i+1], sel)
		if errText(gerr) != errText(werr) || !sameBits(got.HT, want.HT) || !sameBits(got.L, want.L) || got.KeysUsed != want.KeysUsed {
			t.Errorf("maxdominance(%d,%d): got %+v, %v; reference %+v, %v", i, i+1, got, gerr, want, werr)
		}
	}
	for i := 0; i+1 < len(sets); i++ {
		got, gerr := DistinctCountReaders(sets[i], sets[i+1], sel)
		want, werr := distinctCountReadersRef(c.refSets[i], c.refSets[i+1], sel)
		if errText(gerr) != errText(werr) || !sameBits(got.HT, want.HT) || !sameBits(got.L, want.L) || got.Counts != want.Counts {
			t.Errorf("distinct(%d,%d): got %+v, %v; reference %+v, %v", i, i+1, got, gerr, want, werr)
		}
	}
	{
		got, gerr := DistinctCountMultiReaders(sets, sel)
		want, werr := distinctCountMultiReadersRef(refSets, sel)
		if errText(gerr) != errText(werr) || !sameBits(got.HT, want.HT) || !sameBits(got.L, want.L) || got.KeysUsed != want.KeysUsed {
			t.Errorf("distinct over %d: got %+v, %v; reference %+v, %v", len(sets), got, gerr, want, werr)
		}
	}
	for i, p := range pps {
		sum, got, ok := PPSSumStdErr(p)
		if want, wantSum := ppsSumStdErrRef(c.refPPS[i]), c.refPPS[i].SubsetSum(nil); !ok || !sameBits(got, want) || !sameBits(sum, wantSum) {
			t.Errorf("PPSSumStdErr(%d) = %v, %v, %v; reference %v, %v", i, sum, got, ok, wantSum, want)
		}
		if got, want := p.SubsetSum(sel), c.refPPS[i].SubsetSum(sel); !sameBits(got, want) {
			t.Errorf("pps SubsetSum(%d) = %v; reference %v", i, got, want)
		}
	}
	for i, b := range bks {
		if got, want := BottomKDistinct(b), bottomKDistinctRef(c.refBottomK[i]); !sameBits(got, want) {
			t.Errorf("BottomKDistinct(%d) = %v; reference %v", i, got, want)
		}
		if got, want := b.SubsetSum(sel), c.refBottomK[i].SubsetSum(sel); !sameBits(got, want) {
			t.Errorf("bottomk SubsetSum(%d) = %v; reference %v", i, got, want)
		}
	}
}

// diffEverywhere is diffQueries over every representation and selection.
func diffEverywhere(t *testing.T, c diffCase) {
	t.Helper()
	for mode := 0; mode < numReprs; mode++ {
		for _, s := range diffSels {
			t.Run(reprNames[mode]+"/"+s.name, func(t *testing.T) { diffQueries(t, c, mode, s.sel) })
		}
	}
}

// randomInstances draws r instances of up to n keys each from a universe
// small enough that they overlap, with values on both sides of every
// threshold diffShapes uses.
func randomInstances(rng *randx.RNG, r, n int) []dataset.Instance {
	ins := make([]dataset.Instance, r)
	for i := range ins {
		ins[i] = dataset.Instance{}
		for j := 0; j < n; j++ {
			ins[i][dataset.Key(rng.Intn(3*n))] = 0.25 + 8*rng.Float64()
		}
	}
	return ins
}

// diffShape is r instances and the kind parameters to summarize them with.
type diffShape struct {
	ins []dataset.Instance
	par diffParams
}

// diffShapes returns the named r-instance shapes of TestQueryDiffGenerated.
func diffShapes(rng *randx.RNG, r int) map[string]diffShape {
	base := diffParams{taus: []float64{4, 6}, ps: []float64{0.5}, rankTau: 0.3, fam: sampling.PPS{}}
	with := func(f func(*diffParams)) diffParams {
		p := base
		f(&p)
		return p
	}
	random := randomInstances(rng, r, 120)

	disjoint := make([]dataset.Instance, r)
	identical := make([]dataset.Instance, r)
	oneKey := make([]dataset.Instance, r)
	extremes := make([]dataset.Instance, r)
	firstEmpty := make([]dataset.Instance, r)
	allEmpty := make([]dataset.Instance, r)
	for i := range disjoint {
		disjoint[i], identical[i] = dataset.Instance{}, dataset.Instance{}
		for j := 0; j < 40; j++ {
			disjoint[i][dataset.Key(j*r+i)] = 1 + float64(j%7)
			identical[i][dataset.Key(j*3)] = 1 + float64((i+j)%5)
		}
		oneKey[i] = dataset.Instance{77: 2.5 + float64(i)}
		extremes[i] = dataset.Instance{0: 1 + float64(i), math.MaxUint64: 3}
		firstEmpty[i], allEmpty[i] = random[i], dataset.Instance{}
	}
	oneKey[r-1] = dataset.Instance{78: 1} // one instance disagrees on which key
	firstEmpty[0] = dataset.Instance{}

	return map[string]diffShape{
		"random":          {random, base},
		"empty summary":   {firstEmpty, base},
		"all empty":       {allEmpty, base},
		"disjoint keys":   {disjoint, base},
		"identical keys":  {identical, base},
		"one key":         {oneKey, base},
		"keys 0 and max":  {extremes, base},
		"every p = 1":     {random, with(func(p *diffParams) { p.taus = []float64{0.125} })},
		"every p < 1":     {random, with(func(p *diffParams) { p.taus = []float64{64, 100} })},
		"bottom-k tau +∞": {random, with(func(p *diffParams) { p.rankTau = math.Inf(1) })},
		"EXP family":      {random, with(func(p *diffParams) { p.fam = sampling.EXP{} })},
		"set p = 1":       {random, with(func(p *diffParams) { p.ps = []float64{1} })},
		"non-uniform p":   {random, with(func(p *diffParams) { p.ps = []float64{0.5, 0.25} })},
	}
}

// TestQueryDiffGenerated: kernels vs reference over {map-backed, production,
// mixed} readers × r ∈ {2, 3, 5} × sel ∈ {nil, half the keys, none} × the
// named shapes.
func TestQueryDiffGenerated(t *testing.T) {
	rng := randx.New(13)
	for _, r := range []int{2, 3, 5} {
		for name, sh := range diffShapes(rng, r) {
			c := buildDiffCase(NewSummarizer(0xD1FF), sh.ins, sh.par)
			t.Run(fmt.Sprintf("r=%d/%s", r, name), func(t *testing.T) { diffEverywhere(t, c) })
		}
	}
}

// TestQueryDiffErrors: summaries that must not be combined are refused
// with the reference's error text.
func TestQueryDiffErrors(t *testing.T) {
	par := diffParams{taus: []float64{4}, ps: []float64{0.5}, rankTau: 0.3, fam: sampling.PPS{}}
	ins := randomInstances(randx.New(3), 3, 30)
	// build draws instance position i as instance ids[i] under summ[i].
	build := func(summ [3]*Summarizer, ids [3]int) diffCase {
		var c diffCase
		for i, in := range ins {
			c.add(summ[i], ids[i], in, par.taus[0], par.ps[0], par)
		}
		return c
	}
	nine, ten := NewSummarizer(9), NewSummarizer(10)
	single := build([3]*Summarizer{nine, nine, nine}, [3]int{0, 1, 2})
	single.sets, single.refSets = single.sets[:1], single.refSets[:1]
	cases := map[string]diffCase{
		"different randomizations": build([3]*Summarizer{nine, ten, nine}, [3]int{0, 1, 2}),
		"duplicate instance":       build([3]*Summarizer{nine, nine, nine}, [3]int{0, 0, 0}),
		"one summary":              single,
	}

	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := DistinctCountMultiReaders(represent[SetReader](c.sets, c.refSets, reprView), nil); err == nil {
				t.Fatal("accepted")
			}
			diffEverywhere(t, c)
		})
	}
}

// FuzzQueryKernelsDiff lets the fuzzer pick the entries: data is read four
// bytes at a time as (instance, key high, key low, value), so small inputs
// already collide on keys across instances; the remaining arguments pick
// r, the kind parameters, the representation and the selection.
func FuzzQueryKernelsDiff(f *testing.F) {
	f.Add([]byte{0, 0, 1, 8, 1, 0, 1, 16, 2, 0, 2, 4}, uint8(3), uint8(0), uint8(1), uint8(0))
	f.Add([]byte{0, 0, 0, 1, 1, 255, 255, 255}, uint8(2), uint8(7), uint8(2), uint8(1))
	f.Add([]byte{}, uint8(5), uint8(3), uint8(0), uint8(2))
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 9, 1, 1, 2, 0, 4, 9, 9, 200}, uint8(5), uint8(0xFF), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, rSel, parSel, mode, selSel uint8) {
		r := []int{2, 3, 5}[int(rSel)%3]
		ins := make([]dataset.Instance, r)
		for i := range ins {
			ins[i] = dataset.Instance{}
		}
		for ; len(data) >= 4; data = data[4:] {
			key := uint64(data[1])<<8 | uint64(data[2])
			if data[1] == 0xFF {
				key = math.MaxUint64 - uint64(data[2]) // the top of the key space
			}
			ins[int(data[0])%r][dataset.Key(key)] = float64(data[3]) / 8
		}
		par := diffParams{
			taus:    [][]float64{{4}, {0.05}, {40}, {2, 9}}[parSel&3],
			ps:      [][]float64{{0.5}, {1}, {0.1}, {0.5, 0.25}}[parSel>>2&3],
			rankTau: []float64{0.3, math.Inf(1), 0.01, 5}[parSel>>4&3],
			fam:     []sampling.RankFamily{sampling.PPS{}, sampling.EXP{}}[parSel>>6&1],
		}
		c := buildDiffCase(NewSummarizer(uint64(parSel)<<8|uint64(rSel)), ins, par)
		diffQueries(t, c, int(mode)%numReprs, diffSels[int(selSel)%len(diffSels)].sel)
	})
}

// TestQueryScratchConcurrent: queries share nothing but the scratch pool,
// so the same queries issued from several goroutines at once answer with
// the bits of the sequential run (run under -race in CI).
func TestQueryScratchConcurrent(t *testing.T) {
	fx := newKernelFixture(200)
	type answer struct{ ht, l float64 }
	run := func() [3]answer {
		md, err1 := MaxDominanceReaders(fx.pps[0], fx.pps[1], nil)
		dc, err2 := DistinctCountMultiReaders(fx.sets, nil)
		if err1 != nil || err2 != nil {
			t.Error(err1, err2)
		}
		stderr, _ := SumStdErr(fx.pps[0], 0)
		return [3]answer{{md.HT, md.L}, {dc.HT, dc.L}, {BottomKDistinct(fx.bottomk[0]), stderr}}
	}
	want := run()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if run() != want {
					t.Errorf("goroutine %d, round %d: answer differs from the sequential run", g, i)
				}
			}
		}()
	}
	wg.Wait()
}
