package core

import (
	"bytes"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/randx"
	"repro/internal/sampling"
)

func engineTestInstance(n int) dataset.Instance {
	rng := randx.New(63)
	in := make(dataset.Instance, n)
	for k := dataset.Key(1); k <= dataset.Key(n); k++ {
		in[k] = math.Floor(1 + rng.Pareto(1, 1.3))
	}
	return in
}

// TestStreamConfigsAgree: the engine-backed streams produce the same
// summary for every execution strategy, and match the batch samplers the
// one-shot entry points use.
func TestStreamConfigsAgree(t *testing.T) {
	in := engineTestInstance(600)
	s := NewSummarizer(404)
	cfgs := []engine.Config{{}, {Parallel: true, Shards: 3, BatchSize: 50}, {Parallel: true}}

	wantPPS := sampling.PoissonPPS(in, 40, s.seedFunc(0))
	wantBK := sampling.BottomK(in, 30, sampling.EXP{}, s.seedFunc(1))
	for _, cfg := range cfgs {
		ps := s.StreamPPS(cfg, 0, 40)
		bs := s.StreamBottomK(cfg, 1, 30, sampling.EXP{})
		for h, v := range in {
			ps.Push(h, v)
			bs.Push(h, v)
		}
		pps := ps.Close()
		if !reflect.DeepEqual(entryMap(pps), wantPPS.Values) {
			t.Fatalf("cfg %+v: PPS entries differ from the batch sampler's (%d vs %d keys)", cfg, pps.Size(), len(wantPPS.Values))
		}
		bk := bs.Close()
		if bk.RankTau() != wantBK.Tau {
			t.Fatalf("cfg %+v: bottom-k tau %v, want %v", cfg, bk.RankTau(), wantBK.Tau)
		}
		if !reflect.DeepEqual(entryMap(bk), wantBK.Values) {
			t.Fatalf("cfg %+v: bottom-k entries differ from the batch sampler's", cfg)
		}
	}
}

// TestStreamSummarizersMatchBatch: the incremental front-door streams end
// at the same summaries as the one-shot entry points.
func TestStreamSummarizersMatchBatch(t *testing.T) {
	in := engineTestInstance(400)
	s := NewSummarizer(77)
	cfg := engine.Config{Parallel: true, Shards: 4, BatchSize: 32}

	want := s.SummarizeBottomK(2, in, 25, sampling.PPS{})
	st := s.StreamBottomK(cfg, 2, 25, sampling.PPS{})
	for h, v := range in {
		st.Push(h, v)
	}
	got := st.Close()
	sameSummary(t, "bottom-k stream", got, want)

	wantPPS := s.SummarizePPS(3, in, 35)
	ps := s.StreamPPS(cfg, 3, 35)
	for h, v := range in {
		ps.Push(h, v)
	}
	gotPPS := ps.Close()
	sameSummary(t, "pps stream", gotPPS, wantPPS)
	// Stream-built summaries stay combinable with one-shot ones.
	if _, err := MaxDominanceReaders(wantPPS, gotPPS, nil); err == nil {
		t.Error("same-instance summaries must be rejected")
	}
	other := s.SummarizePPS(4, in, 35)
	if _, err := MaxDominanceReaders(gotPPS, other, nil); err != nil {
		t.Errorf("stream-built summary not combinable: %v", err)
	}
}

// sameSummary asserts that two summaries are one and the same: kind,
// randomization, instance, parameters and entries, bit for bit — which is
// to say the same canonical bytes.
func sameSummary(t *testing.T, label string, got, want Summary) {
	t.Helper()
	if !bytes.Equal(got.stored().data, want.stored().data) {
		t.Fatalf("%s: summaries differ (%d vs %d entries)", label, got.Size(), want.Size())
	}
}

// TestStreamMultiMatchesPerInstance: the one-pass multi-instance
// streams, fed one shuffled combined stream over a shared key universe,
// close to exactly the per-instance summaries, count every pair, and the
// closed summaries answer queries exactly like per-instance ones.
func TestStreamMultiMatchesPerInstance(t *testing.T) {
	rng := randx.New(31)
	ins := make([]dataset.Instance, 3)
	ids := []int{2, 5, 9}
	for i := range ins {
		ins[i] = make(dataset.Instance, 300)
		for j := 0; j < 300; j++ {
			ins[i][dataset.Key(rng.Intn(700)+1)] = math.Floor(1 + rng.Pareto(1, 1.3))
		}
	}
	var stream []MultiPair
	for i, in := range ins {
		for _, h := range slices.Sorted(maps.Keys(in)) {
			stream = append(stream, MultiPair{Key: h, Instance: i, Value: in[h]})
		}
	}
	shuffled := make([]MultiPair, len(stream))
	for i, j := range rng.Perm(len(stream)) {
		shuffled[i] = stream[j]
	}
	taus := []float64{20, 45, 90}
	s := NewSummarizer(8080)
	ps := s.StreamMultiPPS(ids, taus)
	bs := s.StreamMultiBottomK(ids, 25, sampling.PPS{})
	ps.PushBatch(shuffled[:100])
	ps.PushBatch(shuffled[100:])
	for _, m := range shuffled {
		bs.Push(m.Instance, m.Key, m.Value)
	}
	for _, st := range []engine.Stats{ps.Stats(), bs.Stats()} {
		if st.Pairs != uint64(len(stream)) {
			t.Fatalf("Stats().Pairs = %d, want %d", st.Pairs, len(stream))
		}
	}
	multiPPS, multiBK := ps.Close(), bs.Close()
	for i, id := range ids {
		wantPPS := s.SummarizePPS(id, ins[i], taus[i])
		wantBK := s.SummarizeBottomK(id, ins[i], 25, sampling.PPS{})
		if multiPPS[i].InstanceID() != id || multiBK[i].InstanceID() != id {
			t.Fatalf("instance IDs %d/%d, want %d", multiPPS[i].InstanceID(), multiBK[i].InstanceID(), id)
		}
		if multiPPS[i].PPSTau() != taus[i] {
			t.Fatalf("tau %v, want %v", multiPPS[i].PPSTau(), taus[i])
		}
		sameSummary(t, "pps", multiPPS[i], wantPPS)
		sameSummary(t, "bottomk", multiBK[i], wantBK)
	}

	// Multi-built summaries answer queries exactly like per-instance ones.
	wantDom, err := MaxDominanceReaders(s.SummarizePPS(ids[0], ins[0], taus[0]), s.SummarizePPS(ids[1], ins[1], taus[1]), nil)
	if err != nil {
		t.Fatal(err)
	}
	gotDom, err := MaxDominanceReaders(multiPPS[0], multiPPS[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotDom != wantDom {
		t.Fatalf("maxdominance over multi-built summaries = %+v, want %+v", gotDom, wantDom)
	}
}

// TestSummarizePPSDegenerateTau: non-positive thresholds keep their
// historical batch semantics instead of panicking in the stream sampler —
// tau = 0 samples every positive key exactly, tau < 0 samples none.
func TestSummarizePPSDegenerateTau(t *testing.T) {
	in := engineTestInstance(50)
	s := NewSummarizer(5)
	zero := s.SummarizePPS(0, in, 0)
	if zero.Size() != len(in) {
		t.Errorf("tau=0: sampled %d of %d keys, want all", zero.Size(), len(in))
	}
	neg := s.SummarizePPS(0, in, -3)
	if neg.Size() != 0 {
		t.Errorf("tau<0: sampled %d keys, want none", neg.Size())
	}
}

// TestMultiStreamRefusals: the multi-instance streams refuse what they
// cannot sample — a threshold count that does not match the instances, a
// non-positive threshold (SummarizePPS's degenerate thresholds have no
// streaming sampler), an instance position out of range — loudly rather
// than mis-sample.
func TestMultiStreamRefusals(t *testing.T) {
	s := NewSummarizer(17)
	ps := s.StreamMultiPPS([]int{0, 1}, []float64{5, 5})
	bs := s.StreamMultiBottomK([]int{0, 1}, 4, sampling.PPS{})
	for name, f := range map[string]func(){
		"threshold count":      func() { s.StreamMultiPPS([]int{0, 1}, []float64{5}) },
		"zero threshold":       func() { s.StreamMultiPPS([]int{0}, []float64{0}) },
		"negative threshold":   func() { s.StreamMultiPPS([]int{0}, []float64{-1}) },
		"pps instance 2":       func() { ps.Push(2, 1, 1) },
		"bottomk instance -1":  func() { bs.Push(-1, 1, 1) },
		"bottomk batch past r": func() { bs.PushBatch([]MultiPair{{Key: 1, Instance: 2, Value: 1}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// Push offers one (key, value) arrival of instances[i].
func (m *multiStream[S]) Push(i int, h dataset.Key, v float64) {
	m.by[i].Push(h, v)
	m.pairs++
}
