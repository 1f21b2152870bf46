package experiments

import (
	"maps"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/estimator"
	"repro/internal/simdata"
)

func TestMultiPeriodShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-salt MSE sweep in short mode")
	}
	tab := multiPeriod()
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	prevRatio := 0.0
	for i := range tab.Rows {
		mseHT := cell(tab, i, 2)
		mseL := cell(tab, i, 3)
		ratio := cell(tab, i, 4)
		if mseL >= mseHT {
			t.Errorf("row %d: L MSE %v not below HT %v", i, mseL, mseHT)
		}
		// The partial-information advantage grows with r.
		if ratio <= prevRatio {
			t.Errorf("row %d: HT/L ratio %v not growing (prev %v)", i, ratio, prevRatio)
		}
		prevRatio = ratio
		// Coordinated sampling beats both independent estimators on this
		// workload (moderate overlap, p=0.2).
		if coord := cell(tab, i, 5); coord >= mseL {
			t.Errorf("row %d: coordinated MSE %v not below independent L %v", i, coord, mseL)
		}
	}
}

// TestCoordinatedDistinctUnbiased: over shared-seed salts the coordinated
// estimate is unbiased with variance d(1/p − 1), the binomial count
// variance, whatever the overlap.
func TestCoordinatedDistinctUnbiased(t *testing.T) {
	logs := simdata.RequestLog(500, 3, 0.4, 7)
	union := map[dataset.Key]bool{}
	for _, l := range logs {
		maps.Copy(union, l)
	}
	d := float64(len(union))
	const p = 0.2
	const trials = 5000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < trials; i++ {
		est := coordinatedDistinct(union, p, uint64(i))
		sum += est
		sum2 += est * est
	}
	mean := sum / trials
	if math.Abs(mean-d)/d > 0.02 {
		t.Errorf("mean %v, want %v", mean, d)
	}
	mcVar := sum2/trials - mean*mean
	if want := d * (1/p - 1); math.Abs(mcVar-want)/want > 0.1 {
		t.Errorf("variance %v, closed form %v", mcVar, want)
	}
}

// TestCoordinationVsIndependence pins the §7.2 trade-off precisely.
// Coordination turns the per-key outcome into "all or nothing" (variance
// d(1/p−1)), which always beats the independent-sample HT estimator
// (d(1/p²−1)) and beats the independent L estimator in the aggressive-
// sampling regime (small p) and on dissimilar sets. But on highly similar
// sets, *independent* sampling gives each union key up to two chances to
// be sampled, and the L estimator exploits both: at J=1 its variance
// d(1/(2p−p²)−1) is strictly below the coordinated d(1/p−1). Coordination
// is a boost, not a free lunch.
func TestCoordinationVsIndependence(t *testing.T) {
	const d = 1000.0
	for _, p := range []float64{0.05, 0.2, 0.5} {
		coord := d * (1/p - 1)
		e := estimator.DistinctEstimator{P1: p, P2: p}
		if ht := e.VarHT(d); coord > ht {
			t.Errorf("p=%v: coordinated %v above independent HT %v", p, coord, ht)
		}
		// Disjoint sets, small p: coordination wins (1/p vs ≈1/(4p²)).
		if p <= 0.2 {
			if indep := e.VarL(d, 0); coord > indep+1e-9 {
				t.Errorf("p=%v J=0: coordinated %v above independent L %v", p, coord, indep)
			}
		}
		// Identical sets: independent L wins at every p.
		if indep := e.VarL(d, 1); indep > coord+1e-9 {
			t.Errorf("p=%v J=1: independent L %v above coordinated %v", p, indep, coord)
		}
	}
}

// TestCoordinatedDistinctExactAtFullRate: at p = 1 every key's shared seed
// is below the threshold, so the estimate is the union size.
func TestCoordinatedDistinctExactAtFullRate(t *testing.T) {
	logs := simdata.RequestLog(300, 2, 0.4, 3)
	union := map[dataset.Key]bool{}
	for _, l := range logs {
		maps.Copy(union, l)
	}
	if got := coordinatedDistinct(union, 1, 9); got != float64(len(union)) {
		t.Errorf("estimate %v, want %d", got, len(union))
	}
}

// TestCoordinatedDistinctNested: one shared seed per key makes samples
// nested — a key sampled from a set is sampled from every superset — so
// the estimate never decreases as the union grows.
func TestCoordinatedDistinctNested(t *testing.T) {
	logs := simdata.RequestLog(500, 3, 0.3, 5)
	for salt := uint64(0); salt < 50; salt++ {
		union := map[dataset.Key]bool{}
		prev := 0.0
		for i, l := range logs {
			maps.Copy(union, l)
			est := coordinatedDistinct(union, 0.2, salt)
			if est < prev {
				t.Fatalf("salt %d: estimate fell from %v to %v adding log %d", salt, prev, est, i)
			}
			prev = est
		}
	}
}
