package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
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

// TestSummarizeWithConfigsAgree: the engine-routed entry points produce the
// same summary for every execution strategy, and match the legacy batch
// samplers.
func TestSummarizeWithConfigsAgree(t *testing.T) {
	in := engineTestInstance(600)
	s := NewSummarizer(404)
	cfgs := []engine.Config{{}, {Parallel: true, Shards: 3, BatchSize: 50}, {Parallel: true}}

	wantPPS := sampling.PoissonPPS(in, 40, s.seedFunc(0))
	wantBK := sampling.BottomK(in, 30, sampling.EXP{}, s.seedFunc(1))
	for _, cfg := range cfgs {
		pps := s.SummarizePPSWith(cfg, 0, in, 40)
		if !reflect.DeepEqual(entryMap(pps), wantPPS.Values) {
			t.Fatalf("cfg %+v: PPS entries differ from the batch sampler's (%d vs %d keys)", cfg, pps.Size(), len(wantPPS.Values))
		}
		bk := s.SummarizeBottomKWith(cfg, 1, in, 30, sampling.EXP{})
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

// TestSummarizeMultiMatchesPerInstance: the one-pass multi-instance entry
// points equal the per-instance passes bit for bit, and a stream fed one
// instance after the other closes to summaries that answer queries exactly
// like per-instance ones.
func TestSummarizeMultiMatchesPerInstance(t *testing.T) {
	rng := randx.New(31)
	ins := make([]dataset.Instance, 3)
	ids := []int{2, 5, 9}
	for i := range ins {
		ins[i] = make(dataset.Instance, 300)
		for j := 0; j < 300; j++ {
			ins[i][dataset.Key(rng.Intn(700)+1)] = math.Floor(1 + rng.Pareto(1, 1.3))
		}
	}
	taus := []float64{20, 45, 90}
	cfg := engine.Config{Parallel: true, Shards: 4, BatchSize: 16, Async: true, QueueDepth: 2}
	s := NewSummarizer(8080)
	multiPPS := s.SummarizeMultiPPSWith(cfg, ids, ins, taus)
	multiBK := s.SummarizeMultiBottomKWith(cfg, ids, ins, 25, sampling.PPS{})
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
	st := s.StreamMultiPPS(cfg, ids[:2], taus[:2])
	for h, v := range ins[0] {
		st.Push(0, h, v)
	}
	for h, v := range ins[1] {
		st.Push(1, h, v)
	}
	final := st.Close()
	wantDom, err := MaxDominanceReaders(s.SummarizePPS(ids[0], ins[0], taus[0]), s.SummarizePPS(ids[1], ins[1], taus[1]), nil)
	if err != nil {
		t.Fatal(err)
	}
	gotDom, err := MaxDominanceReaders(final[0], final[1], nil)
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

// TestSummarizeMultiPPSDegenerateTau: the one-pass entry point honors the
// degenerate batch thresholds (tau = 0 keeps every positive key, tau < 0
// none) exactly like r per-instance SummarizePPSWith calls — their
// presence drops the call to the batch path instead of panicking in the
// streaming sampler.
func TestSummarizeMultiPPSDegenerateTau(t *testing.T) {
	s := NewSummarizer(17)
	ins := []dataset.Instance{engineTestInstance(300), engineTestInstance(300), engineTestInstance(300)}
	taus := []float64{0, 25, -1}
	got := s.SummarizeMultiPPSWith(engine.Config{}, []int{0, 1, 2}, ins, taus)
	for i, in := range ins {
		want := s.SummarizePPSWith(engine.Config{}, i, in, taus[i])
		if got[i].PPSTau() != taus[i] {
			t.Fatalf("instance %d: tau %v, want %v", i, got[i].PPSTau(), taus[i])
		}
		sameSummary(t, fmt.Sprintf("instance %d (tau %v)", i, taus[i]), got[i], want)
	}
	if got[0].Size() != len(ins[0]) {
		t.Fatalf("tau 0 kept %d of %d keys, want all", got[0].Size(), len(ins[0]))
	}
	if got[2].Size() != 0 {
		t.Fatalf("tau < 0 kept %d keys, want none", got[2].Size())
	}
	// The streaming entry point has no batch fallback: it must refuse
	// degenerate thresholds loudly rather than mis-sample.
	defer func() {
		if recover() == nil {
			t.Fatal("StreamMultiPPS accepted a non-positive threshold")
		}
	}()
	s.StreamMultiPPS(engine.Config{}, []int{0}, []float64{0})
}
