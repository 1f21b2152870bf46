package sampling

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/randx"
	"repro/internal/xhash"
)

// TestStreamBottomKMatchesBatch: the streaming sampler produces exactly
// the batch bottom-k sample (same keys, same threshold) for any arrival
// order.
func TestStreamBottomKMatchesBatch(t *testing.T) {
	in := dataset.Instance{}
	rng := randx.New(42)
	for k := dataset.Key(1); k <= 500; k++ {
		in[k] = math.Floor(1 + rng.Pareto(1, 1.3))
	}
	seeder := xhash.Seeder{Salt: 77}
	seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
	batch := BottomK(in, 25, PPS{}, seed)

	for trial := 0; trial < 3; trial++ {
		s := NewStreamBottomK(25, PPS{}, seed)
		order := randx.New(uint64(trial)).Perm(len(in))
		keys := in.Keys()
		for _, idx := range order {
			h := keys[idx]
			s.Push(h, in[h])
		}
		snap := s.Snapshot()
		if snap.Tau != batch.Tau {
			t.Fatalf("trial %d: tau %v vs batch %v", trial, snap.Tau, batch.Tau)
		}
		if len(snap.Values) != len(batch.Values) {
			t.Fatalf("trial %d: size %d vs %d", trial, len(snap.Values), len(batch.Values))
		}
		for h, v := range batch.Values {
			if snap.Values[h] != v {
				t.Fatalf("trial %d: key %d missing or wrong", trial, h)
			}
		}
	}
}

func TestStreamBottomKSmallStream(t *testing.T) {
	seeder := xhash.Seeder{Salt: 5}
	seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
	s := NewStreamBottomK(10, EXP{}, seed)
	s.Push(1, 3)
	s.Push(2, 0) // zero weight: ignored
	s.Push(3, 7)
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	snap := s.Snapshot()
	if !math.IsInf(snap.Tau, 1) {
		t.Errorf("tau = %v, want +inf for undersized stream", snap.Tau)
	}
	if got := snap.SubsetSum(nil); got != 10 {
		t.Errorf("undersized subset sum %v, want exact 10", got)
	}
	// Snapshot does not consume the sampler.
	s.Push(4, 9)
	if s.Len() != 3 {
		t.Errorf("push after snapshot failed: len %d", s.Len())
	}
}

// TestStreamPoissonPPSMatchesBatch: the streaming filter equals the batch
// PPS sample.
func TestStreamPoissonPPSMatchesBatch(t *testing.T) {
	in := dataset.Instance{}
	rng := randx.New(17)
	for k := dataset.Key(1); k <= 300; k++ {
		in[k] = math.Floor(1 + rng.Pareto(1, 1.4))
	}
	seeder := xhash.Seeder{Salt: 3}
	seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
	tau := TauForExpectedSize(in, 30)
	batch := PoissonPPS(in, tau, seed)
	s := NewStreamPoissonPPS(tau, seed)
	for h, v := range in {
		s.Push(h, v)
	}
	if s.Len() != batch.Len() {
		t.Fatalf("size %d vs batch %d", s.Len(), batch.Len())
	}
	snap := s.Snapshot()
	for h, v := range batch.Values {
		if snap.Values[h] != v {
			t.Fatalf("key %d mismatch", h)
		}
	}
	if got, want := snap.SubsetSum(nil), batch.SubsetSum(nil); math.Abs(got-want) > 1e-9 {
		t.Errorf("subset sums differ: %v vs %v", got, want)
	}
	// Snapshot is a copy: pushing more does not mutate it.
	before := len(snap.Values)
	s.Push(9999, 1e9)
	if len(snap.Values) != before {
		t.Error("snapshot aliases the live sampler")
	}
}

func TestStreamConstructorsValidate(t *testing.T) {
	seed := func(dataset.Key) float64 { return 0.5 }
	mustPanic(t, func() { NewStreamBottomK(0, PPS{}, seed) })
	mustPanic(t, func() { NewStreamPoissonPPS(0, seed) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

// TestAppendToPresizedAllocs: AppendTo into a map presized with the
// summed Len() copies entries without growing the map — zero allocations,
// the contract the engine's shard-union relies on.
func TestAppendToPresizedAllocs(t *testing.T) {
	seeder := xhash.Seeder{Salt: 3}
	samplers := make([]*StreamPoissonPPS, 3)
	for i := range samplers {
		inst := i
		seed := func(h dataset.Key) float64 { return seeder.Seed(inst, uint64(h)) }
		s := NewStreamPoissonPPS(4, seed)
		for k := dataset.Key(1); k <= 400; k++ {
			s.Push(k+dataset.Key(1000*i), 1+float64(k%17))
		}
		samplers[i] = s
	}
	total := 0
	for _, s := range samplers {
		total += s.Len()
	}
	if total == 0 {
		t.Fatal("fixture retained nothing")
	}
	var dst map[dataset.Key]float64
	allocs := testing.AllocsPerRun(10, func() {
		dst = make(map[dataset.Key]float64, total)
		for _, s := range samplers {
			s.AppendTo(dst)
		}
	})
	if len(dst) != total {
		t.Fatalf("union holds %d keys, want %d", len(dst), total)
	}
	// One allocation budget: the presized map itself (Go maps may take a
	// couple of internal allocations at make time; the copies add none).
	base := testing.AllocsPerRun(10, func() {
		dst = make(map[dataset.Key]float64, total)
	})
	if allocs > base {
		t.Errorf("AppendTo into a presized map allocated %v beyond the %v of make itself", allocs-base, base)
	}
}

// squareRanks is a rank family the samplers do not know: no certain-reject
// bound exists for it, so every arrival of a full sampler must take the
// exact rank comparison.
type squareRanks struct{ PPS }

func (squareRanks) Rank(u, w float64) float64 { return u * u / w }

// TestStreamPushBatchMatchesPush: a stream offered in slices — empty ones,
// one that takes the sampler from filling to full, long ones — leaves a
// sampler where offering it pair by pair does, zero weights, the families
// with a certain-reject bound and one without alike.
func TestStreamPushBatchMatchesPush(t *testing.T) {
	seeder := xhash.Seeder{Salt: 21}
	seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
	rng := randx.New(21)
	stream := make([]Pair, 4000)
	for i := range stream {
		stream[i] = Pair{Key: dataset.Key(rng.Uint64()), Value: math.Floor(rng.Pareto(1, 1.2))}
		if i%97 == 0 {
			stream[i].Value = 0
		}
	}
	slices := func(push func([]Pair)) {
		rest := stream
		for _, n := range []int{0, 1, 20, 30, 0, 256, 1000} { // k+1 = 33 falls inside the fourth
			push(rest[:n])
			rest = rest[n:]
		}
		push(rest)
	}
	same := func(name string, batched, pushed *WeightedSample) {
		t.Helper()
		if batched.Tau != pushed.Tau || len(batched.Values) != len(pushed.Values) {
			t.Fatalf("%s: batched sample has tau %v and %d keys, pushed tau %v and %d keys",
				name, batched.Tau, len(batched.Values), pushed.Tau, len(pushed.Values))
		}
		for h, v := range pushed.Values {
			if got, ok := batched.Values[h]; !ok || got != v {
				t.Fatalf("%s: key %d is %v (%v) batched, %v pushed", name, h, got, ok, v)
			}
		}
	}
	for _, fam := range []RankFamily{PPS{}, EXP{}, squareRanks{}} {
		one, batch := NewStreamBottomK(32, fam, seed), NewStreamBottomK(32, fam, seed)
		for _, p := range stream {
			one.Push(p.Key, p.Value)
		}
		slices(batch.PushBatch)
		same("bottom-k "+fam.Name(), batch.Snapshot(), one.Snapshot())
	}
	one, batch := NewStreamPoissonPPS(300, seed), NewStreamPoissonPPS(300, seed)
	for _, p := range stream {
		one.Push(p.Key, p.Value)
	}
	slices(batch.PushBatch)
	if batch.Len() == 0 {
		t.Fatal("the Poisson fixture kept nothing")
	}
	same("poisson pps", batch.Snapshot(), one.Snapshot())
}
