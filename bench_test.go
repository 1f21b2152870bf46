// Root benchmark harness: micro-benchmarks of the estimators and sampling
// substrates the paper figures are built from (the figures themselves are
// internal/experiments' BenchmarkFigures).
//
// Run with: go test -bench=. -benchmem
package repro_test

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/estimator"
	"repro/internal/randx"
	"repro/internal/sampling"
	"repro/internal/simdata"
	"repro/internal/xhash"
)

// --- Micro-benchmarks: estimators ---

var sinkF float64

func benchOutcomes(n int) []estimator.ObliviousOutcome {
	rng := randx.New(9)
	p := []float64{0.3, 0.6}
	out := make([]estimator.ObliviousOutcome, n)
	for i := range out {
		v := []float64{rng.Float64() * 100, rng.Float64() * 100}
		u := []float64{rng.Float64(), rng.Float64()}
		out[i] = estimator.SampleOblivious(v, u, p)
	}
	return out
}

// BenchmarkMaxL2 measures the per-outcome cost of the r=2 oblivious
// max^(L) estimator.
func BenchmarkMaxL2(b *testing.B) {
	outs := benchOutcomes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF += estimator.MaxL2(outs[i%len(outs)])
	}
}

// BenchmarkMaxU2 measures the r=2 oblivious max^(U) estimator.
func BenchmarkMaxU2(b *testing.B) {
	outs := benchOutcomes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF += estimator.MaxU2(outs[i%len(outs)])
	}
}

// BenchmarkMaxHTOblivious measures the HT baseline.
func BenchmarkMaxHTOblivious(b *testing.B) {
	outs := benchOutcomes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF += estimator.MaxHTOblivious(outs[i%len(outs)])
	}
}

// BenchmarkMaxLUniformCoefficients measures the O(r²) Theorem 4.2
// coefficient recurrence.
func BenchmarkMaxLUniformCoefficients(b *testing.B) {
	for _, r := range []int{4, 16, 64} {
		b.Run(benchName("r", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := estimator.NewMaxLUniform(r, 0.3)
				if err != nil {
					b.Fatal(err)
				}
				sinkF += e.PrefixSum(1)
			}
		})
	}
}

// BenchmarkMaxLUniformEstimate measures the per-outcome estimate with
// precomputed coefficients (r=8).
func BenchmarkMaxLUniformEstimate(b *testing.B) {
	e, err := estimator.NewMaxLUniform(8, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	rng := randx.New(4)
	vals := make([][]float64, 256)
	for i := range vals {
		k := 1 + rng.Intn(8)
		v := make([]float64, k)
		for j := range v {
			v[j] = rng.Float64() * 50
		}
		vals[i] = v
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF += e.EstimateValues(vals[i%len(vals)])
	}
}

// BenchmarkMaxL2PPS measures the known-seed PPS max^(L) closed form,
// including its logarithmic regimes.
func BenchmarkMaxL2PPS(b *testing.B) {
	rng := randx.New(12)
	tau := []float64{20, 30}
	outs := make([]estimator.PPSOutcome, 1024)
	for i := range outs {
		v := []float64{rng.Float64() * 40, rng.Float64() * 40}
		u := []float64{rng.Float64(), rng.Float64()}
		outs[i] = estimator.SamplePPS(v, u, tau)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF += estimator.MaxL2PPS(outs[i%len(outs)])
	}
}

// BenchmarkMaxHTPPS measures the PPS HT baseline.
func BenchmarkMaxHTPPS(b *testing.B) {
	rng := randx.New(12)
	tau := []float64{20, 30}
	outs := make([]estimator.PPSOutcome, 1024)
	for i := range outs {
		v := []float64{rng.Float64() * 40, rng.Float64() * 40}
		u := []float64{rng.Float64(), rng.Float64()}
		outs[i] = estimator.SamplePPS(v, u, tau)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF += estimator.MaxHTPPS(outs[i%len(outs)])
	}
}

// BenchmarkDeriveBinaryR3 measures the generic Algorithm 1 engine on a
// 3-entry binary domain.
func BenchmarkDeriveBinaryR3(b *testing.B) {
	prob := estimator.DiscreteProblem{
		P:       []float64{0.3, 0.4, 0.5},
		Domains: [][]float64{{0, 1}, {0, 1}, {0, 1}},
		F:       dataset.Max,
		Less:    estimator.MaxLOrder,
	}
	for i := 0; i < b.N; i++ {
		if _, err := estimator.Derive(prob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDerivePlusBinaryR3 measures the constrained f̂(+≺) engine
// (active-set QP per vector) on the same domain.
func BenchmarkDerivePlusBinaryR3(b *testing.B) {
	prob := estimator.DiscreteProblem{
		P:       []float64{0.3, 0.4, 0.5},
		Domains: [][]float64{{0, 1}, {0, 1}, {0, 1}},
		F:       dataset.Max,
		Less:    estimator.UasOrder,
	}
	for i := 0; i < b.N; i++ {
		if _, err := estimator.DerivePlus(prob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeriveUBinaryR3 measures the generic Algorithm 2 engine
// (batched QP) on a 3-entry binary domain.
func BenchmarkDeriveUBinaryR3(b *testing.B) {
	prob := estimator.DiscreteProblem{
		P:       []float64{0.3, 0.3, 0.3},
		Domains: [][]float64{{0, 1}, {0, 1}, {0, 1}},
		F:       dataset.Max, // OR on binary domains
		Less:    estimator.SparseOrder,
	}
	for i := 0; i < b.N; i++ {
		if _, err := estimator.DeriveU(prob, estimator.PositivesBatch); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks: sampling substrates ---

func benchInstance(n int) dataset.Instance {
	rng := randx.New(2)
	in := make(dataset.Instance, n)
	for k := dataset.Key(1); k <= dataset.Key(n); k++ {
		in[k] = 1 + rng.Pareto(1, 1.3)
	}
	return in
}

// BenchmarkPoissonPPS measures one PPS summarization pass over 10k keys.
func BenchmarkPoissonPPS(b *testing.B) {
	in := benchInstance(10000)
	tau := sampling.TauForExpectedSize(in, 500)
	seeder := xhash.Seeder{Salt: 3}
	seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sampling.NewStreamPoissonPPS(tau, seed)
		for h, v := range in {
			s.Push(h, v)
		}
		sinkF += float64(len(s.Snapshot().Entries))
	}
}

// BenchmarkBottomK measures one bottom-k pass (heap-based) over 10k keys.
func BenchmarkBottomK(b *testing.B) {
	in := benchInstance(10000)
	seeder := xhash.Seeder{Salt: 3}
	seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sampling.NewStreamBottomK(500, sampling.PPS{}, seed)
		for h, v := range in {
			s.Push(h, v)
		}
		sinkF += s.Snapshot().Tau
	}
}

// BenchmarkStreamBottomKPush measures the per-arrival cost of the
// streaming bottom-k sampler.
func BenchmarkStreamBottomKPush(b *testing.B) {
	in := benchInstance(4096)
	keys := make([]dataset.Key, 0, len(in))
	for h := range in {
		keys = append(keys, h)
	}
	seeder := xhash.Seeder{Salt: 6}
	seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
	s := sampling.NewStreamBottomK(256, sampling.PPS{}, seed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := keys[i%len(keys)]
		s.Push(h, in[h])
	}
}

// BenchmarkStreamBottomKReject isolates the full-sampler reject path — the
// common case once k items are retained — per rank family: one seed hash,
// one multiply, one compare, no heap or map traffic, 0 allocs/op. The EXP
// variant is the one the threshold fast-reject transforms: the uniform
// draw rejects before the logarithm is taken.
func BenchmarkStreamBottomKReject(b *testing.B) {
	for _, fam := range []sampling.RankFamily{sampling.PPS{}, sampling.EXP{}} {
		b.Run(fam.Name(), func(b *testing.B) {
			seeder := xhash.Seeder{Salt: 6}
			seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
			s := sampling.NewStreamBottomK(256, fam, seed)
			for k := dataset.Key(1); k <= 4096; k++ {
				s.Push(k, 1000)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Tiny values rank far above tau: every arrival rejects.
				s.Push(dataset.Key(1000000+i%1024), 1e-9)
			}
		})
	}
}

// BenchmarkStreamBottomKEvict isolates the full-sampler accept path:
// every arrival ranks below tau, so each push pays the exact rank, one
// map delete + insert at steady size, and an O(log k) heap sift — still
// 0 allocs/op. Together with the reject benchmark this brackets the
// full sampler's per-arrival cost. Always-evict streams cannot run
// forever (tau only decreases), so the keys are pushed in descending
// rank order — every arrival out-ranks the whole retained sample — and
// the sampler is rebuilt outside the timer once per key-pool cycle.
func BenchmarkStreamBottomKEvict(b *testing.B) {
	for _, fam := range []sampling.RankFamily{sampling.PPS{}, sampling.EXP{}} {
		b.Run(fam.Name(), func(b *testing.B) {
			seeder := xhash.Seeder{Salt: 6}
			seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
			const m = 1 << 16
			keys := make([]dataset.Key, m)
			for i := range keys {
				keys[i] = dataset.Key(i + 1)
			}
			sort.Slice(keys, func(i, j int) bool {
				return fam.Rank(seed(keys[i]), 1000) > fam.Rank(seed(keys[j]), 1000)
			})
			var s *sampling.StreamBottomK
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % m
				if j == 0 {
					b.StopTimer()
					s = sampling.NewStreamBottomK(256, fam, seed)
					b.StartTimer()
				}
				s.Push(keys[j], 1000)
			}
		})
	}
}

// BenchmarkTauForExpectedSize measures the threshold solver.
func BenchmarkTauForExpectedSize(b *testing.B) {
	in := benchInstance(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF += sampling.TauForExpectedSize(in, 500)
	}
}

// --- Engine benchmarks: sharded summarization throughput ---

// benchStream draws a deterministic 1M-pair stream with heavy-tailed
// values, the workload of the engine scaling benchmarks.
func benchStream(n int) []engine.Pair {
	rng := randx.New(11)
	pairs := make([]engine.Pair, n)
	for i := range pairs {
		pairs[i] = engine.Pair{Key: dataset.Key(i + 1), Value: 1 + rng.Pareto(1, 1.3)}
	}
	return pairs
}

// BenchmarkEngineBottomK measures sharded bottom-k summarization of a
// 1M-key stream at 1/2/4/8 shards. shards=1 is the sequential baseline
// (in-line StreamBottomK, no goroutines); the per-shard speedup only
// materializes when GOMAXPROCS cores are actually available. push is
// shards=1 fed one Push per pair, the per-arrival path of callers that
// summarize as pairs arrive, where the others hand the stream over in one
// PushBatch.
func BenchmarkEngineBottomK(b *testing.B) {
	pairs := benchStream(1 << 20)
	seeder := xhash.Seeder{Salt: 9}
	seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
	b.Run("push", func(b *testing.B) {
		b.SetBytes(int64(len(pairs)) * 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := engine.NewBottomK(4096, sampling.PPS{}, seed, engine.Config{})
			for _, p := range pairs {
				e.Push(p.Key, p.Value)
			}
			sinkF += e.Close().Tau
		}
	})
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(benchName("shards", shards), func(b *testing.B) {
			cfg := engine.Config{Parallel: shards > 1, Shards: shards}
			b.SetBytes(int64(len(pairs)) * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := engine.NewBottomK(4096, sampling.PPS{}, seed, cfg)
				e.PushBatch(pairs)
				sinkF += e.Close().Tau
			}
		})
	}
}

// BenchmarkEnginePoissonPPS measures sharded Poisson PPS summarization of
// a 1M-key stream at 1/2/4/8 shards (stateless filter per shard, union
// merge).
func BenchmarkEnginePoissonPPS(b *testing.B) {
	pairs := benchStream(1 << 20)
	seeder := xhash.Seeder{Salt: 9}
	seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
	in := make(dataset.Instance, len(pairs))
	for _, p := range pairs {
		in[p.Key] = p.Value
	}
	tau := sampling.TauForExpectedSize(in, 4096)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(benchName("shards", shards), func(b *testing.B) {
			cfg := engine.Config{Parallel: shards > 1, Shards: shards}
			b.SetBytes(int64(len(pairs)) * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := engine.NewPoissonPPS(tau, seed, cfg)
				e.PushBatch(pairs)
				sinkF += float64(len(e.Close().Entries))
			}
		})
	}
}

// BenchmarkEngineAsync measures async-mode bottom-k summarization of a
// 1M-key stream across per-shard queue depths (4 shards, fixed batch):
// the queue-depth-vs-throughput curve of the bounded-backpressure design.
// The per-run "stalls" metric counts batch handoffs that found the
// destination queue full — the engine's explicit backpressure signal.
func BenchmarkEngineAsync(b *testing.B) {
	pairs := benchStream(1 << 20)
	seeder := xhash.Seeder{Salt: 9}
	seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }
	for _, depth := range []int{1, 4, 16, 64} {
		b.Run(benchName("queue", depth), func(b *testing.B) {
			cfg := engine.Config{Parallel: true, Shards: 4, Async: true, QueueDepth: depth}
			b.SetBytes(int64(len(pairs)) * 16)
			var stalls uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := engine.NewBottomK(4096, sampling.PPS{}, seed, cfg)
				e.PushBatch(pairs)
				sinkF += e.Close().Tau
				// After Close, so the drain flush's stalls are counted too.
				stalls += e.Stats().Stalls
			}
			b.ReportMetric(float64(stalls)/float64(b.N), "stalls/op")
		})
	}
	// The steady sub-benchmark measures the long-lived producer path: one
	// async engine reused across iterations, each op pushing the full
	// 1M-pair stream. With the sync.Pool batch arena recycling slices from
	// the shard workers back to the producer, allocs/op must be 0 at
	// steady state.
	b.Run("steady", func(b *testing.B) {
		cfg := engine.Config{Parallel: true, Shards: 4, Async: true}
		e := engine.NewBottomK(4096, sampling.PPS{}, seed, cfg)
		e.PushBatch(pairs) // warm: fill the samplers and the batch arena
		b.SetBytes(int64(len(pairs)) * 16)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.PushBatch(pairs)
		}
		b.StopTimer()
		sinkF += e.Close().Tau
	})
}

// BenchmarkEngineMultiBottomK measures one-pass multi-instance bottom-k
// summarization: r instances, each with its own seeds from one Summarizer
// and its own in-line stream, populated by a single scan of a combined
// stream that pushes every pair into its instance's stream (the
// alternative is r separate scans). POST /v1/ingest/multi does the same
// with one PushBatch per stream per batch (BenchmarkIngestMulti in
// internal/server).
func BenchmarkEngineMultiBottomK(b *testing.B) {
	const r = 4
	type multiPair struct {
		key      dataset.Key
		instance int
		value    float64
	}
	base := benchStream(1 << 18)
	pairs := make([]multiPair, 0, r*len(base))
	for _, p := range base {
		for i := 0; i < r; i++ {
			pairs = append(pairs, multiPair{p.Key, i, p.Value})
		}
	}
	s := core.NewSummarizer(9)
	b.SetBytes(int64(len(pairs)) * 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streams := make([]*core.WeightedStream, r)
		for id := range streams {
			streams[id] = s.StreamBottomK(engine.Config{}, id, 1024, sampling.PPS{})
		}
		for _, p := range pairs {
			streams[p.instance].Push(p.key, p.value)
		}
		for _, st := range streams {
			sinkF += st.Close().(core.BottomKReader).RankTau()
		}
	}
}

// --- Micro-benchmarks: aggregates ---

// BenchmarkMaxDominanceEstimate measures the end-to-end §8.2 pipeline on a
// 20×-scaled traffic workload (sampling both hours + summing per-key
// estimates).
func BenchmarkMaxDominanceEstimate(b *testing.B) {
	m := simdata.Generate(simdata.ScaledTraffic(20))
	tau1 := sampling.TauForExpectedSize(m.Instances[0], 100)
	tau2 := sampling.TauForExpectedSize(m.Instances[1], 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := core.NewSummarizer(uint64(i))
		res, err := core.MaxDominanceReaders(s.SummarizePPS(0, m.Instances[0], tau1), s.SummarizePPS(1, m.Instances[1], tau2), nil)
		if err != nil {
			b.Fatal(err)
		}
		sinkF += res.L
	}
}

// BenchmarkDistinctEstimate measures the §8.1 distinct-count pipeline over
// two 10k-key sets (sampling both sets + tallying the union's categories).
func BenchmarkDistinctEstimate(b *testing.B) {
	logs := simdata.RequestLog(10000, 2, 0.3, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := core.NewSummarizer(uint64(i))
		est, err := core.DistinctCountReaders(s.SummarizeSet(0, logs[0], 0.1), s.SummarizeSet(1, logs[1], 0.1), nil)
		if err != nil {
			b.Fatal(err)
		}
		sinkF += est.L
	}
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
