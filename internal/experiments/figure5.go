package experiments

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/sampling"
)

// figure5 reproduces the worked example of Figure 5: (A) the 3×6 data
// matrix with per-key multi-instance function values, (B) shared-seed
// (consistent) and independent PPS rank assignments, and (C) the resulting
// bottom-3 samples.
func figure5() []*Table {
	m := dataset.FigureFive()
	keys := m.Keys()

	data := &Table{
		ID:     "figure5-data",
		Title:  "example data set: instances × keys, with per-key primitives",
		Header: []string{"row", "k1", "k2", "k3", "k4", "k5", "k6"},
	}
	for i, in := range m.Instances {
		row := []interface{}{fmt.Sprintf("instance %d", i+1)}
		for _, h := range keys {
			row = append(row, in[h])
		}
		data.addRow(row...)
	}
	funcs := []struct {
		name string
		f    func(v []float64) float64
	}{
		{"max(v1,v2)", func(v []float64) float64 { return math.Max(v[0], v[1]) }},
		{"max(v1,v2,v3)", dataset.Max},
		{"min(v1,v2)", func(v []float64) float64 { return math.Min(v[0], v[1]) }},
		{"RG(v1,v2,v3)", dataset.Range},
	}
	for _, fc := range funcs {
		row := []interface{}{fc.name}
		for _, h := range keys {
			row = append(row, fc.f(m.Vector(h)))
		}
		data.addRow(row...)
	}

	shared := dataset.FigureFiveSharedSeeds()
	ranksShared := &Table{
		ID:     "figure5-ranks-shared",
		Title:  "consistent shared-seed PPS ranks (r_i = u/v_i)",
		Header: []string{"row", "k1", "k2", "k3", "k4", "k5", "k6"},
	}
	urow := []interface{}{"u"}
	for _, h := range keys {
		urow = append(urow, shared[h])
	}
	ranksShared.addRow(urow...)
	ppsRank := func(u, v float64) string {
		r := sampling.PPS{}.Rank(u, v)
		if math.IsInf(r, 1) {
			return "+inf"
		}
		return fmt.Sprintf("%.4g", r)
	}
	for i, in := range m.Instances {
		row := []interface{}{fmt.Sprintf("r%d", i+1)}
		for _, h := range keys {
			row = append(row, ppsRank(shared[h], in[h]))
		}
		ranksShared.addRow(row...)
	}

	indep := dataset.FigureFiveIndependentSeeds()
	ranksIndep := &Table{
		ID:     "figure5-ranks-indep",
		Title:  "independent PPS ranks",
		Header: []string{"row", "k1", "k2", "k3", "k4", "k5", "k6"},
	}
	for i, in := range m.Instances {
		urow := []interface{}{fmt.Sprintf("u%d", i+1)}
		for _, h := range keys {
			urow = append(urow, indep[i][h])
		}
		ranksIndep.addRow(urow...)
		row := []interface{}{fmt.Sprintf("r%d", i+1)}
		for _, h := range keys {
			row = append(row, ppsRank(indep[i][h], in[h]))
		}
		ranksIndep.addRow(row...)
	}

	samples := &Table{
		ID:     "figure5-bottom3",
		Title:  "bottom-3 samples (keys by increasing rank)",
		Header: []string{"instance", "shared seed", "independent"},
	}
	for i, in := range m.Instances {
		samples.addRow(
			fmt.Sprintf("%d", i+1),
			fmtKeyList(bottom3Keys(in, func(h dataset.Key) float64 { return shared[h] })),
			fmtKeyList(bottom3Keys(in, func(h dataset.Key) float64 { return indep[i][h] })),
		)
	}
	aggr := &Table{
		ID:     "figure5-aggregates",
		Title:  "worked sum aggregates from §7",
		Header: []string{"aggregate", "value"},
	}
	even := func(h dataset.Key) bool { return h%2 == 0 }
	first3 := func(h dataset.Key) bool { return h <= 3 }
	maxDom12 := dataset.NewMatrix(m.Instances[0], m.Instances[1]).SumAggregate(dataset.Max, even)
	l1dist23 := dataset.NewMatrix(m.Instances[1], m.Instances[2]).SumAggregate(dataset.Range, first3)
	aggr.addRow("max-dominance, even keys, instances {1,2}", maxDom12)
	aggr.addRow("L1 distance, keys {1,2,3}, instances {2,3}", l1dist23)

	return []*Table{data, ranksShared, ranksIndep, samples, aggr}
}

// bottom3Keys returns the 3 keys of smallest PPS rank in the instance
// (ordered by rank), exposed for the Figure 5 tests.
func bottom3Keys(in dataset.Instance, seed func(dataset.Key) float64) []dataset.Key {
	type kr struct {
		k dataset.Key
		r float64
	}
	var all []kr
	for h, v := range in {
		all = append(all, kr{h, sampling.PPS{}.Rank(seed(h), v)})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].r < all[j].r })
	out := make([]dataset.Key, 0, 3)
	for i := 0; i < 3 && i < len(all); i++ {
		out = append(out, all[i].k)
	}
	return out
}

func fmtKeyList(ks []dataset.Key) string {
	s := ""
	for i, k := range ks {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprint(k)
	}
	return s
}

func fmtG(x float64) string { return fmt.Sprintf("%g", x) }
