package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/sampling"
)

// kernelFixture is what the query kernels are measured on: three
// overlapping instances of 10·k keys, summarized to about k keys each in
// every kind a key-walking query reads, as hydrated summaries and as
// views of their v2 encoding.
type kernelFixture struct {
	pps     [2][]PPSReader     // [hydrated, view] × 2 instances
	sets    [2][]SetReader     // [hydrated, view] × 3 instances
	bottomk [2][]BottomKReader // [hydrated, view] × 1 instance
}

var kernelReprs = [2]string{"hydrated", "view"}

func newKernelFixture(t testing.TB, k int) kernelFixture {
	t.Helper()
	s := NewSummarizer(0xC01)
	n := 10 * k
	var fx kernelFixture
	view := func(sum Summary) Summary {
		v, _ := mustView(t, sum)
		return v
	}
	for i := 0; i < 3; i++ {
		in := make(dataset.Instance, n)
		members := make(map[dataset.Key]bool, n)
		for j := 0; j < n; j++ {
			h := dataset.Key(j + i*n/4) // each instance shifted a quarter against the last
			in[h] = 1 + float64((j*7+i)%13)
			members[h] = true
		}
		set := s.SummarizeSet(i, members, 0.1)
		fx.sets[0] = append(fx.sets[0], set)
		fx.sets[1] = append(fx.sets[1], view(set).(SetReader))
		if i < 2 {
			pps := s.SummarizePPSExpectedSize(i, in, float64(k))
			fx.pps[0] = append(fx.pps[0], pps)
			fx.pps[1] = append(fx.pps[1], view(pps).(PPSReader))
		}
		if i == 0 {
			bk := s.SummarizeBottomK(i, in, k, sampling.PPS{})
			fx.bottomk[0] = append(fx.bottomk[0], bk)
			fx.bottomk[1] = append(fx.bottomk[1], view(bk).(BottomKReader))
		}
	}
	return fx
}

// kernelQueries are the key-walking queries as the handler issues them;
// each returns the number of keys it walked.
var kernelQueries = []struct {
	name string
	run  func(fx *kernelFixture, repr int) (keys int, err error)
}{
	{"maxdominance", func(fx *kernelFixture, repr int) (int, error) {
		est, err := MaxDominanceReaders(fx.pps[repr][0], fx.pps[repr][1], nil)
		return est.KeysUsed, err
	}},
	{"distinct2", func(fx *kernelFixture, repr int) (int, error) {
		est, err := DistinctCountMultiReaders(fx.sets[repr][:2], nil)
		return est.KeysUsed, err
	}},
	{"distinct3", func(fx *kernelFixture, repr int) (int, error) {
		est, err := DistinctCountMultiReaders(fx.sets[repr], nil)
		return est.KeysUsed, err
	}},
	{"sum", func(fx *kernelFixture, repr int) (int, error) {
		s := fx.pps[repr][0]
		SumStdErr(s, s.SubsetSum(nil))
		return s.Size(), nil
	}},
	{"bkdistinct", func(fx *kernelFixture, repr int) (int, error) {
		b := fx.bottomk[repr][0]
		BottomKDistinct(b)
		return b.Size(), nil
	}},
}

// BenchmarkQueryKernels reports the per-key cost of each key-walking
// query over views and over hydrated summaries of ~1000 keys.
func BenchmarkQueryKernels(b *testing.B) {
	fx := newKernelFixture(b, 1000)
	for _, q := range kernelQueries {
		for repr, reprName := range kernelReprs {
			b.Run(q.name+"/"+reprName, func(b *testing.B) {
				b.ReportAllocs()
				keys := 0
				for i := 0; i < b.N; i++ {
					n, err := q.run(&fx, repr)
					if err != nil {
						b.Fatal(err)
					}
					keys += n
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(keys), "ns/key")
			})
		}
	}
}

// TestQueryAllocsIndependentOfSampleSize: once the scratch pool is warm, a
// query over 8000-key summaries allocates as often as one over 1000-key
// summaries — nothing is allocated per key. The counts are equal unless
// the pool misses (a GC emptied it, or the race detector's pool dropped
// the value on purpose), which costs one scratch refill: a dozen
// allocations, three orders of magnitude below a per-key term.
func TestQueryAllocsIndependentOfSampleSize(t *testing.T) {
	const refill = 16
	small, large := newKernelFixture(t, 1000), newKernelFixture(t, 8000)
	for _, q := range kernelQueries {
		for repr, reprName := range kernelReprs {
			allocs := func(fx *kernelFixture) float64 {
				return testing.AllocsPerRun(10, func() {
					if _, err := q.run(fx, repr); err != nil {
						t.Fatal(err)
					}
				})
			}
			// Large first: it sizes the pooled columns for both.
			if l, s := allocs(&large), allocs(&small); l > s+refill {
				t.Errorf("%s/%s: %v allocs/op at k=8000, %v at k=1000", q.name, reprName, l, s)
			} else {
				t.Logf("%s/%s: %v allocs/op", q.name, reprName, s)
			}
		}
	}
}
