package sampling

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/randx"
	"repro/internal/xhash"
)

// bottomKRef is the bottom-k sample by definition: every positive key
// ranked at once, the k lowest ranks kept, the (k+1)-st the threshold.
func bottomKRef(in dataset.Instance, k int, fam RankFamily, seed SeedFunc) *WeightedSample {
	var ranked []Entry
	for h, v := range in {
		if r := fam.Rank(seed(h), v); !math.IsInf(r, 1) {
			ranked = append(ranked, Entry{Key: h, Rank: r, Value: v})
		}
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].Rank < ranked[j].Rank })
	out := &WeightedSample{Tau: math.Inf(1), Family: fam}
	if len(ranked) > k {
		out.Tau = ranked[k].Rank
		ranked = ranked[:k]
	}
	for _, e := range ranked {
		out.Entries = append(out.Entries, Pair{Key: e.Key, Value: e.Value})
	}
	sort.Slice(out.Entries, func(i, j int) bool { return out.Entries[i].Key < out.Entries[j].Key })
	return out
}

// poissonPPSRef is the Poisson PPS sample by definition: every key whose
// PPS rank u/v is below 1/tauStar.
func poissonPPSRef(in dataset.Instance, tauStar float64, seed SeedFunc) *WeightedSample {
	out := &WeightedSample{Tau: 1 / tauStar, Family: PPS{}}
	for h, v := range in {
		if (PPS{}).Rank(seed(h), v) < out.Tau {
			out.Entries = append(out.Entries, Pair{Key: h, Value: v})
		}
	}
	sort.Slice(out.Entries, func(i, j int) bool { return out.Entries[i].Key < out.Entries[j].Key })
	return out
}

// pushed offers the instance to push in the given order of its keys.
func pushed(in dataset.Instance, order []int, push func(dataset.Key, float64)) {
	keys := in.Keys()
	for _, idx := range order {
		push(keys[idx], in[keys[idx]])
	}
}

// sameSample reports whether two samples have the same threshold and the
// same entries, bit for bit.
func sameSample(a, b *WeightedSample) bool {
	if math.Float64bits(a.Tau) != math.Float64bits(b.Tau) || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i, e := range a.Entries {
		if e.Key != b.Entries[i].Key || math.Float64bits(e.Value) != math.Float64bits(b.Entries[i].Value) {
			return false
		}
	}
	return true
}

// strictlyAscending reports whether a sample's entries have strictly
// ascending keys — the order a summary's v2 entries are written in.
func strictlyAscending(s *WeightedSample) bool {
	for i := 1; i < len(s.Entries); i++ {
		if s.Entries[i].Key <= s.Entries[i-1].Key {
			return false
		}
	}
	return true
}

// TestStreamSamplersAscendingAnyOrder: for both stream kinds, every
// shuffled arrival order of an instance (zero weights included) reads out
// the same sample — the sample by definition — with strictly ascending
// entries. A key pushed twice, against the samplers' contract, still
// leaves one entry.
func TestStreamSamplersAscendingAnyOrder(t *testing.T) {
	in := dataset.Instance{}
	rng := randx.New(42)
	for k := 1; k <= 500; k++ {
		v := math.Floor(1 + rng.Pareto(1, 1.3))
		if k%9 == 0 {
			v = 0
		}
		in[dataset.Key(rng.Uint64())] = v
	}
	seeder := xhash.Seeder{Salt: 77}
	seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
	tau := TauForExpectedSize(in, 40)
	for trial := 0; trial < 4; trial++ {
		order := randx.New(uint64(trial)).Perm(len(in))
		for _, fam := range []RankFamily{PPS{}, EXP{}} {
			s := NewStreamBottomK(25, fam, seed)
			pushed(in, order, s.Push)
			got, want := s.Snapshot(), bottomKRef(in, 25, fam, seed)
			if !strictlyAscending(got) || !sameSample(got, want) {
				t.Fatalf("trial %d bottom-k %s: sample %+v, want %+v", trial, fam.Name(), got, want)
			}
		}
		s := NewStreamPoissonPPS(tau, seed)
		pushed(in, order, s.Push)
		got, want := s.Snapshot(), poissonPPSRef(in, tau, seed)
		if len(got.Entries) < 20 || !strictlyAscending(got) || !sameSample(got, want) {
			t.Fatalf("trial %d poisson: sample %+v, want %+v", trial, got, want)
		}
	}

	// A key pushed twice: one entry, for a bottom-k sampler still filling
	// and for a Poisson sampler that accepts both arrivals.
	bk := NewStreamBottomK(10, PPS{}, seed)
	bk.Push(7, 3)
	bk.Push(7, 3)
	bk.Push(9, 1)
	if got := bk.Snapshot().Entries; !slices.Equal(got, []Pair{{7, 3}, {9, 1}}) {
		t.Errorf("bottom-k with key 7 pushed twice: entries %v", got)
	}
	pps := NewStreamPoissonPPS(1e-3, seed) // every value ≥ 1e-3 is accepted
	pps.Push(9, 1)
	pps.Push(7, 3)
	pps.Push(7, 3)
	if got := pps.Snapshot().Entries; !slices.Equal(got, []Pair{{7, 3}, {9, 1}}) {
		t.Errorf("poisson with key 7 pushed twice: entries %v", got)
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

// TestStreamPoissonPPSSnapshot: the streaming filter's snapshot is the PPS
// sample by definition, and a copy the live sampler does not touch.
func TestStreamPoissonPPSSnapshot(t *testing.T) {
	in := dataset.Instance{}
	rng := randx.New(17)
	for k := dataset.Key(1); k <= 300; k++ {
		in[k] = math.Floor(1 + rng.Pareto(1, 1.4))
	}
	seeder := xhash.Seeder{Salt: 3}
	seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
	tau := TauForExpectedSize(in, 30)
	want := poissonPPSRef(in, tau, seed)
	s := NewStreamPoissonPPS(tau, seed)
	for h, v := range in {
		s.Push(h, v)
	}
	if len(s.out) != len(want.Entries) {
		t.Fatalf("size %d vs %d", len(s.out), len(want.Entries))
	}
	snap := s.Snapshot()
	if !sameSample(snap, want) {
		t.Fatalf("sample %+v, want %+v", snap, want)
	}
	// Snapshot is a copy: pushing more, and sorting again, leaves it be.
	before := slices.Clone(snap.Entries)
	s.Push(0, 1e9)
	s.Snapshot()
	if !slices.Equal(snap.Entries, before) {
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

// TestMergePoissonPPSAllocs: the union of per-shard Poisson samplers
// copies their pairs into one slice presized to their summed sizes and
// sorts it in place — two allocations, that slice and the sample, however
// many shards and pairs there are.
func TestMergePoissonPPSAllocs(t *testing.T) {
	seeder := xhash.Seeder{Salt: 3}
	samplers := make([]*StreamPoissonPPS, 3)
	total := 0
	for i := range samplers {
		inst := i
		seed := func(h dataset.Key) float64 { return seeder.Seed(inst, uint64(h)) }
		s := NewStreamPoissonPPS(4, seed)
		for k := dataset.Key(1); k <= 400; k++ {
			s.Push(k+dataset.Key(1000*i), 1+float64(k%17))
		}
		samplers[i] = s
		total += len(s.out)
	}
	if total == 0 {
		t.Fatal("fixture retained nothing")
	}
	var got *WeightedSample
	allocs := testing.AllocsPerRun(10, func() { got = MergePoissonPPS(samplers...) })
	if len(got.Entries) != total || !strictlyAscending(got) {
		t.Fatalf("union holds %d pairs (ascending: %v), want %d", len(got.Entries), strictlyAscending(got), total)
	}
	if allocs > 2 {
		t.Errorf("MergePoissonPPS allocated %v times, want 2", allocs)
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
	inSlices := func(push func([]Pair)) {
		rest := stream
		for _, n := range []int{0, 1, 20, 30, 0, 256, 1000} { // k+1 = 33 falls inside the fourth
			push(rest[:n])
			rest = rest[n:]
		}
		push(rest)
	}
	same := func(name string, batched, pushed *WeightedSample) {
		t.Helper()
		if !sameSample(batched, pushed) {
			t.Fatalf("%s: batched sample %+v, pushed %+v", name, batched, pushed)
		}
	}
	for _, fam := range []RankFamily{PPS{}, EXP{}, squareRanks{}} {
		one, batch := NewStreamBottomK(32, fam, seed), NewStreamBottomK(32, fam, seed)
		for _, p := range stream {
			one.Push(p.Key, p.Value)
		}
		inSlices(batch.PushBatch)
		same("bottom-k "+fam.Name(), batch.Snapshot(), one.Snapshot())
	}
	one, batch := NewStreamPoissonPPS(300, seed), NewStreamPoissonPPS(300, seed)
	for _, p := range stream {
		one.Push(p.Key, p.Value)
	}
	inSlices(batch.PushBatch)
	if len(batch.out) == 0 {
		t.Fatal("the Poisson fixture kept nothing")
	}
	same("poisson pps", batch.Snapshot(), one.Snapshot())
}
