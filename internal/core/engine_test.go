package core

import (
	"bytes"
	"fmt"
	"math"
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
// summary for every execution strategy — the
// async ones bench/summaryload drives included — whether fed by Push or by
// uneven PushBatch slices, and match the one-shot entry points, which push
// the instance through the same samplers in-line.
func TestStreamConfigsAgree(t *testing.T) {
	in := engineTestInstance(600)
	pairs := make([]engine.Pair, 0, len(in))
	for h, v := range in {
		pairs = append(pairs, engine.Pair{Key: h, Value: v})
	}
	s := NewSummarizer(404)
	cfgs := []engine.Config{{}, {Parallel: true, Shards: 3, BatchSize: 50}, {Parallel: true},
		{Async: true}, {Parallel: true, Shards: 2, Async: true}}

	wantPPS := s.SummarizePPS(0, in, 40)
	wantBK := s.SummarizeBottomK(1, in, 30, sampling.EXP{})
	for _, cfg := range cfgs {
		for _, batched := range []bool{false, true} {
			for _, c := range []struct {
				name string
				st   *WeightedStream
				want Summary
			}{
				{"pps", s.StreamPPS(cfg, 0, 40), wantPPS},
				{"bottom-k", s.StreamBottomK(cfg, 1, 30, sampling.EXP{}), wantBK},
			} {
				label := fmt.Sprintf("cfg %+v, batched %v: %s", cfg, batched, c.name)
				if batched {
					// Slices of 1, 2, 3, ... pairs, the last one cut short.
					for i, n := 0, 1; i < len(pairs); i, n = i+n, n+1 {
						c.st.PushBatch(pairs[i:min(i+n, len(pairs))])
					}
				} else {
					for _, p := range pairs {
						c.st.Push(p.Key, p.Value)
					}
				}
				sameSummary(t, label, c.st.Close(), c.want)
			}
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
	gotPPS := ps.Close().(*PPSSummary)
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
