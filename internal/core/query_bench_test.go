package core

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sampling"
)

// kernelFixture is what the query kernels are measured on: three
// overlapping instances of 10·k keys, summarized to about k keys each in
// every kind a key-walking query reads.
type kernelFixture struct {
	pps     []PPSReader     // 2 instances
	sets    []SetReader     // 3 instances
	bottomk []BottomKReader // 1 instance
}

func newKernelFixture(k int) kernelFixture {
	s := NewSummarizer(0xC01)
	n := 10 * k
	var fx kernelFixture
	for i := 0; i < 3; i++ {
		in := make(dataset.Instance, n)
		members := make(map[dataset.Key]bool, n)
		for j := 0; j < n; j++ {
			h := dataset.Key(j + i*n/4) // each instance shifted a quarter against the last
			in[h] = 1 + float64((j*7+i)%13)
			members[h] = true
		}
		fx.sets = append(fx.sets, s.SummarizeSet(i, members, 0.1))
		if i < 2 {
			fx.pps = append(fx.pps, s.SummarizePPSExpectedSize(i, in, float64(k)))
		}
		if i == 0 {
			fx.bottomk = append(fx.bottomk, s.SummarizeBottomK(i, in, k, sampling.PPS{}))
		}
	}
	return fx
}

// kernelQueries are the key-walking queries as the handler issues them;
// each returns the number of keys it walked.
var kernelQueries = []struct {
	name string
	run  func(fx *kernelFixture) (keys int, err error)
}{
	{"maxdominance", func(fx *kernelFixture) (int, error) {
		est, err := MaxDominanceReaders(fx.pps[0], fx.pps[1], nil)
		return est.KeysUsed, err
	}},
	{"distinct2", func(fx *kernelFixture) (int, error) {
		est, err := DistinctCountMultiReaders(fx.sets[:2], nil)
		return est.KeysUsed, err
	}},
	{"distinct3", func(fx *kernelFixture) (int, error) {
		est, err := DistinctCountMultiReaders(fx.sets, nil)
		return est.KeysUsed, err
	}},
	{"sum", func(fx *kernelFixture) (int, error) {
		s := fx.pps[0]
		PPSSumStdErr(s)
		return s.Size(), nil
	}},
	{"bkdistinct", func(fx *kernelFixture) (int, error) {
		b := fx.bottomk[0]
		BottomKDistinct(b)
		return b.Size(), nil
	}},
}

// BenchmarkQueryKernels reports the per-key cost of each key-walking
// query over summaries of ~1000 keys.
func BenchmarkQueryKernels(b *testing.B) {
	fx := newKernelFixture(1000)
	for _, q := range kernelQueries {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			keys := 0
			for i := 0; i < b.N; i++ {
				n, err := q.run(&fx)
				if err != nil {
					b.Fatal(err)
				}
				keys += n
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(keys), "ns/key")
		})
	}
}

// TestQueryAllocsIndependentOfSampleSize: once the scratch pool is warm, a
// query over 8000-key summaries allocates as often as one over 1000-key
// summaries — nothing is allocated per key, because the kernels read the
// stored entries in place and the scratch holds only O(r) cursors. The
// counts are equal unless the pool misses (a GC emptied it, or the race
// detector's pool dropped the value on purpose), which costs one scratch
// refill: a dozen allocations, three orders of magnitude below a per-key
// term. At either size that is 0 allocs/key: a warm query allocates only
// distinct3's three per-query slices inside estimator.ORLUniform, which is
// what benchgate pins for the QueryKernels rows.
func TestQueryAllocsIndependentOfSampleSize(t *testing.T) {
	const refill, perQuery = 16, 3
	small, large := newKernelFixture(1000), newKernelFixture(8000)
	for _, q := range kernelQueries {
		allocs := func(fx *kernelFixture) float64 {
			return testing.AllocsPerRun(10, func() {
				if _, err := q.run(fx); err != nil {
					t.Fatal(err)
				}
			})
		}
		// Small first: nothing the large query needs was sized by an earlier
		// one.
		if s, l := allocs(&small), allocs(&large); l > s+refill || s > perQuery+refill {
			t.Errorf("%s: %v allocs/op at k=8000, %v at k=1000", q.name, l, s)
		} else {
			t.Logf("%s: %v allocs/op", q.name, s)
		}
	}
}

// retainedSlots counts what a pooled scratch keeps alive between queries:
// the capacity of every slice reachable from v through struct fields and
// slice elements. A pointer left set would pin a whole summary, so it
// counts as far more than any bound.
func retainedSlots(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Slice:
		v = v.Slice(0, v.Cap())
		total := v.Len()
		for i := 0; i < v.Len(); i++ {
			total += retainedSlots(v.Index(i))
		}
		return total
	case reflect.Struct:
		total := 0
		for i := 0; i < v.NumField(); i++ {
			total += retainedSlots(v.Field(i))
		}
		return total
	case reflect.Pointer:
		if !v.IsNil() {
			return 1 << 30
		}
	}
	return 0
}

// TestQueryScratchRetainsNoPerEntryMemory: every key-walking query at
// k = 8000, followed by 1000 k = 100 queries, leaves no pooled scratch
// holding more than a few slots per consulted summary, and none pointing at
// a summary — whichever scratch the pool hands back, and whatever field a
// later change adds to it.
func TestQueryScratchRetainsNoPerEntryMemory(t *testing.T) {
	large, small := newKernelFixture(8000), newKernelFixture(100)
	for _, q := range kernelQueries {
		if _, err := q.run(&large); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		if _, err := kernelQueries[i%len(kernelQueries)].run(&small); err != nil {
			t.Fatal(err)
		}
	}
	// The widest query above is distinct3: r = 3 cursors, positions, seeders
	// and outcome flags, and an (r+1)² table with 2r floats of workspace.
	const r = 3
	const bound = 2 * (5*r + (r+1)*(r+1) + 2*r) // slices.Grow may round a capacity up
	for i := 0; i < 8; i++ {
		sc := scratchPool.Get().(*queryScratch)
		if got := retainedSlots(reflect.ValueOf(*sc)); got > bound {
			t.Errorf("pooled scratch retains %d slots, want at most %d (O(r), none per entry)", got, bound)
		}
		defer scratchPool.Put(sc)
	}
}
