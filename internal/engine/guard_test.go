package engine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sampling"
	"repro/internal/xhash"
)

// squareRanks is a rank family the samplers know no certain-reject bound
// for.
type squareRanks struct{ sampling.PPS }

func (squareRanks) Rank(u, w float64) float64 { return u * u / w }

// TestTauGuardOnlyInLine: an engine shows its sampler's certain-reject
// bound only where the producer's goroutine owns that sampler — the
// in-line path — and there it is the sampler's own; the sharded and async
// paths, and a family without a bound, show NaN, which turns a producer's
// gate off. Reading the bound leaves the sample alone: Close still returns
// the sequential pass's sample.
func TestTauGuardOnlyInLine(t *testing.T) {
	seeder := xhash.Seeder{Salt: 9}
	seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
	const k, n = 16, 500
	for _, cfg := range []Config{{}, {Parallel: true, Shards: 2}, {Async: true}} {
		for _, fam := range []sampling.RankFamily{sampling.PPS{}, sampling.EXP{}, squareRanks{}} {
			bk, pps := NewBottomK(k, fam, seed, cfg), NewPoissonPPS(50, seed, cfg)
			seqBK, seqPPS := sampling.NewStreamBottomK(k, fam, seed), sampling.NewStreamPoissonPPS(50, seed)
			for i := 1; i <= n; i++ {
				h, v := dataset.Key(i*7919), float64(1+i%13)
				bk.Push(h, v)
				pps.Push(h, v)
				seqBK.Push(h, v)
				seqPPS.Push(h, v)
			}
			inline := !cfg.Parallel && !cfg.Async
			for _, c := range []struct {
				name      string
				got, want float64
			}{
				{"bottom-k", bk.TauGuard(), seqBK.TauGuard()},
				{"poisson", pps.TauGuard(), seqPPS.TauGuard()},
			} {
				if !inline {
					c.want = math.NaN()
				}
				if math.Float64bits(c.got) != math.Float64bits(c.want) && !(math.IsNaN(c.got) && math.IsNaN(c.want)) {
					t.Errorf("%+v %s %s: TauGuard %v, want %v", cfg, fam.Name(), c.name, c.got, c.want)
				}
			}
			if _, unknown := fam.(squareRanks); unknown != math.IsNaN(bk.TauGuard()) && inline {
				t.Errorf("%s: in-line bottom-k bound %v: want NaN exactly for a family without one", fam.Name(), bk.TauGuard())
			}
			sameSample(t, bk.Close(), seqBK.Snapshot(), fmt.Sprintf("%+v %s: bottom-k", cfg, fam.Name()))
			sameSample(t, pps.Close(), seqPPS.Snapshot(), fmt.Sprintf("%+v %s: poisson", cfg, fam.Name()))
		}
	}
}
