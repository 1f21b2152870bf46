package main

// layers.go is the only file of the benchmark that imports
// repro/internal/...: every function of the repository's layers that the
// benchmark pins is called from here and listed in README.md. A refactor
// that renames or merges one of them has exactly this file to follow.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/estimator"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/xhash"
	"repro/pkg/api"
)

// summary is a stored summary of any kind, hydrated or a zero-copy view.
type summary = core.Summary

// summarize draws the summary the server must produce for the same
// pairs, salt, instance and parameters: kind "pps" uses tau, "bottomk"
// uses k (PPS ranks, the server's default family), "set" uses p over the
// keys alone. It goes through the same Summarizer.Stream* entry points
// the ingest handler uses, under the sequential engine config; the engine
// guarantees every config yields the identical summary.
func summarize(kind string, salt uint64, instance int, in pairs, k int, tau, p float64) summary {
	summ := core.NewSummarizer(salt)
	switch kind {
	case "pps":
		st := summ.StreamPPS(engine.Config{}, instance, tau)
		for i, h := range in.keys {
			st.Push(dataset.Key(h), in.vals[i])
		}
		return st.Close()
	case "bottomk":
		st := summ.StreamBottomK(engine.Config{}, instance, k, sampling.PPS{})
		for i, h := range in.keys {
			st.Push(dataset.Key(h), in.vals[i])
		}
		return st.Close()
	case "set":
		st := summ.StreamSet(instance, p)
		for _, h := range in.keys {
			st.Push(dataset.Key(h))
		}
		return st.Close()
	}
	panic("summaryload: unknown summary kind " + kind)
}

// tauForExpectedSize is the PPS threshold giving an expected sample of k
// of the values.
func tauForExpectedSize(vals []float64, k float64) float64 {
	in := make(dataset.Instance, len(vals))
	for i, v := range vals {
		in[dataset.Key(i)] = v
	}
	return sampling.TauForExpectedSize(in, k)
}

func encodeSummary(s summary, version int) ([]byte, error) {
	return core.EncodeSummary(s, version)
}

// estimate answers q over sums (the queried instances, in request
// order) through the same core.*Readers functions the query handler
// calls. It returns the estimate without its error bar, and the error-bar
// computation the handler attaches as a separate step (nil for the query
// kinds that carry none), so that the two can be timed apart.
func estimate(q *request, sums []summary) (ans answer, stderr func() (float64, bool), err error) {
	switch q.class {
	case opMaxDominance:
		a, ok1 := sums[0].(core.PPSReader)
		b, ok2 := sums[1].(core.PPSReader)
		if !ok1 || !ok2 {
			return ans, nil, fmt.Errorf("maxdominance over non-PPS summaries")
		}
		est, err := core.MaxDominanceReaders(a, b, nil)
		return answer{HT: est.HT, L: est.L, Keys: est.KeysUsed}, nil, err
	case opDistinct:
		sets := make([]core.SetReader, len(sums))
		for i, s := range sums {
			set, ok := s.(core.SetReader)
			if !ok {
				return ans, nil, fmt.Errorf("distinct over non-set summaries")
			}
			sets[i] = set
		}
		est, err := core.DistinctCountMultiReaders(sets, nil)
		ans = answer{HT: est.HT, L: est.L, Keys: est.KeysUsed}
		return ans, func() (float64, bool) { return core.DistinctHTStdErr(sets, ans.HT) }, err
	case opBKDistinct:
		b, ok := sums[0].(core.BottomKReader)
		if !ok {
			return ans, nil, fmt.Errorf("bottom-k distinct over a non-bottom-k summary")
		}
		ans = answer{HT: core.BottomKDistinct(b), Keys: b.Size()}
		return ans, func() (float64, bool) { return core.BottomKDistinctStdErr(b, ans.HT) }, nil
	case opSum:
		pps, ok := sums[0].(core.PPSReader)
		if !ok {
			return ans, nil, fmt.Errorf("sum over a non-PPS summary")
		}
		ans = answer{Sum: pps.SubsetSum(nil)}
		return ans, func() (float64, bool) { return core.SumStdErr(sums[0], ans.Sum) }, nil
	case opQuantile:
		pps := make([]core.PPSReader, len(sums))
		for i, s := range sums {
			p, ok := s.(core.PPSReader)
			if !ok {
				return ans, nil, fmt.Errorf("quantile over non-PPS summaries")
			}
			pps[i] = p
		}
		est, err := core.QuantilePPSReaders(pps, dataset.Key(q.key), q.l)
		return answer{HT: est.HT, Keys: est.Sampled}, nil, err
	}
	return ans, nil, fmt.Errorf("no estimate for %s", opClassNames[q.class])
}

// expectedAnswer is what GET /v1/query must return for q over sums.
func expectedAnswer(q *request, sums []summary) (answer, error) {
	ans, stderr, err := estimate(q, sums)
	if err == nil && stderr != nil {
		ans.StdErr, ans.HasStdErr = stderr()
	}
	return ans, err
}

// ---------------------------------------------------------------------
// The layer pass: the probe set replayed in process, one goroutine,
// through each layer's public functions, with the benchmark's own spans
// around every call.

// serverConfig is summaryd's default ingest engine configuration
// (-shards 1, default batch size, no -async).
var serverConfig = engine.Config{Shards: 1, BatchSize: engine.DefaultBatchSize}

// shardedConfig is the two-shard asynchronous pipeline.
var shardedConfig = engine.Config{Parallel: true, Shards: 2, Async: true}

// layerPass accumulates the timings of one pass.
type layerPass struct {
	rec *spanRecorder
	ctx context.Context
	reg *server.Registry // holds the probe fixture, as the server would
	srv *server.Server
	// Per name: a running total (nanoseconds, allocations, bytes), the
	// units it is to be divided by (pairs, entries, keys, calls), and for
	// timings each call's nanoseconds, for medians.
	total map[string]float64
	units map[string]float64
	each  map[string][]float64
}

// count adds amount, spread over units, to name's total.
func (lp *layerPass) count(name string, amount, units float64) {
	lp.total[name] += amount
	lp.units[name] += units
}

// add records one timed call of name that handled units.
func (lp *layerPass) add(name string, d time.Duration, units float64) {
	lp.count(name, float64(d.Nanoseconds()), units)
	lp.each[name] = append(lp.each[name], float64(d.Nanoseconds()))
}

// per is name's total divided by its units.
func (lp *layerPass) per(name string) float64 {
	if lp.units[name] == 0 {
		return 0
	}
	return lp.total[name] / lp.units[name]
}

// medianUS is the median call duration of name in microseconds.
func (lp *layerPass) medianUS(name string) float64 { return median(lp.each[name]) / 1e3 }

// mallocs runs fn and returns the heap allocations and bytes it made.
// The pass is single-threaded, so the process-wide counters are fn's.
func mallocs(fn func()) (count, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// serve runs one request through the in-process handler.
func (lp *layerPass) serve(q *request) error {
	rr := httptest.NewRecorder()
	lp.srv.ServeHTTP(rr, handlerRequest(q))
	if rr.Code/100 != 2 {
		return fmt.Errorf("in-process %s %s: HTTP %d: %s", opClassNames[q.class], q.dataset, rr.Code, bytes.TrimSpace(rr.Body.Bytes()))
	}
	return nil
}

// loadRegistry puts the fixture into reg in the representation the
// server would hold: a zero-copy view for datasets posted as v2, hydrated
// maps for those posted as JSON.
func loadRegistry(reg *server.Registry, f *queryFixture) error {
	for _, d := range f.all() {
		for _, s := range d.sums {
			body, err := core.EncodeSummary(s, d.wire)
			if err != nil {
				return err
			}
			var stored summary
			if d.wire == 2 {
				stored, err = core.DecodeSummaryViewFrom(bytes.NewReader(body))
			} else {
				stored, _, err = core.DecodeSummaryFrom(bytes.NewReader(body))
			}
			if err != nil {
				return err
			}
			if err := reg.Put(d.name, stored); err != nil {
				return err
			}
		}
	}
	return nil
}

// layerResult is what the layer pass hands back.
type layerResult struct {
	metrics map[string]metric
	spans   *spanRecorder
}

// runLayerPass replays the probe set through the layers. accuracy is the
// full 64-salt registry the estimator-quality figures are computed over;
// killedDir is a data directory a server was killed on (store.Open is
// timed on it); tmp is scratch space.
func runLayerPass(ctx context.Context, p *probeSet, accuracy *queryFixture, killedDir, tmp string) (layerResult, error) {
	lp := &layerPass{
		rec: newSpanRecorder(), ctx: ctx, reg: server.NewRegistry(),
		total: map[string]float64{}, units: map[string]float64{}, each: map[string][]float64{},
	}
	lp.srv = server.New(lp.reg, serverConfig)
	if err := loadRegistry(lp.reg, p.fixture); err != nil {
		return layerResult{}, err
	}
	m := map[string]metric{}
	if err := lp.ingestLayers(p, m); err != nil {
		return layerResult{}, err
	}
	if err := lp.writeLayers(p, tmp, m); err != nil {
		return layerResult{}, err
	}
	if err := lp.queryLayers(p, m); err != nil {
		return layerResult{}, err
	}
	if err := lp.storeOpen(killedDir, tmp, m); err != nil {
		return layerResult{}, err
	}
	if err := estimatorQuality(accuracy, m); err != nil {
		return layerResult{}, err
	}
	lp.ledger(m)
	return layerResult{metrics: m, spans: lp.rec}, nil
}

// ingestLayers replays each probe ingest: the whole handler, then the
// engine, registry and sampler calls it makes, on the same pairs.
func (lp *layerPass) ingestLayers(p *probeSet, m map[string]metric) error {
	var retained, pushed float64
	for _, q := range p.ingests {
		pairs := float64(q.npairs)
		counts := map[string]int64{"pairs": int64(q.npairs)}
		format := "ndjson"
		if q.class == opIngestCSV {
			format = "csv"
		}
		root := lp.rec.newTrace("replay.ingest_" + format)
		var err error
		var hd time.Duration
		allocs, allocBytes := mallocs(func() {
			hd = lp.rec.timed(root, "server.ingest", counts, func() { err = lp.serve(q) })
		})
		if err != nil {
			return err
		}
		lp.add("server.ingest_"+format, hd, pairs)
		lp.count("server.ingest_allocs", allocs, pairs)
		lp.count("server.ingest_bytes", allocBytes, pairs)

		summ := core.NewSummarizer(q.salt)
		raw := *q.raw
		var push func(dataset.Key, float64)
		var drain func() summary
		var direct func(dataset.Key, float64) // the bare sampler, no engine
		var sharded func(dataset.Key, float64)
		var shardedClose func()
		seed := func(h dataset.Key) float64 { return xhash.Seeder{Salt: q.salt}.Seed(q.instance, uint64(h)) }
		samplerName := "sampling." + q.kind + "_push"
		if q.kind == "bottomk" {
			st := summ.StreamBottomK(serverConfig, q.instance, q.k, sampling.PPS{})
			push, drain = st.Push, func() summary { return st.Close() }
			direct = sampling.NewStreamBottomK(q.k, sampling.PPS{}, seed).Push
			sh := summ.StreamBottomK(shardedConfig, q.instance, q.k, sampling.PPS{})
			sharded, shardedClose = sh.Push, func() { sh.Close() }
		} else {
			st := summ.StreamPPS(serverConfig, q.instance, q.tau)
			push, drain = st.Push, func() summary { return st.Close() }
			direct = sampling.NewStreamPoissonPPS(q.tau, seed).Push
			sh := summ.StreamPPS(shardedConfig, q.instance, q.tau)
			sharded, shardedClose = sh.Push, func() { sh.Close() }
		}
		feed := func(sink func(dataset.Key, float64)) func() {
			return func() {
				for i, h := range raw.keys {
					sink(dataset.Key(h), raw.vals[i])
				}
			}
		}
		pd := lp.rec.timed(root, "engine.push", counts, feed(push))
		lp.add("engine.push", pd, pairs)
		var sum summary
		dd := lp.rec.timed(root, "engine.drain", nil, func() { sum = drain() })
		lp.add("engine.drain", dd, 1)
		scratch := server.NewRegistry()
		rd := lp.rec.timed(root, "registry.put", nil, func() { err = scratch.PutCtx(lp.ctx, q.dataset, sum) })
		if err != nil {
			return err
		}
		lp.add("registry.put_ingest", rd, 1)
		lp.add(samplerName, lp.rec.timed(root, samplerName, counts, feed(direct)), pairs)
		lp.add("engine.sharded_push", lp.rec.timed(root, "engine.sharded_push", counts, feed(sharded)), pairs)
		shardedClose()

		// What is left of the handler's time is the scanner's: it has no
		// public entry point to be timed through.
		lp.count("scan."+format, float64((hd - pd - dd - rd).Nanoseconds()), pairs)
		retained += float64(sum.Size())
		pushed += pairs
	}
	m["server.ingest_ndjson_ns_per_pair"] = metric{lp.per("server.ingest_ndjson"), "ns"}
	m["server.ingest_csv_ns_per_pair"] = metric{lp.per("server.ingest_csv"), "ns"}
	m["server.ingest_allocs_per_pair"] = metric{lp.per("server.ingest_allocs"), "count"}
	m["server.ingest_bytes_per_pair"] = metric{lp.per("server.ingest_bytes"), "B"}
	m["scan.ndjson_ns_per_pair"] = metric{lp.per("scan.ndjson"), "ns"}
	m["scan.csv_ns_per_pair"] = metric{lp.per("scan.csv"), "ns"}
	m["scan.share_of_ingest"] = metric{
		(lp.total["scan.ndjson"] + lp.total["scan.csv"]) / (lp.total["server.ingest_ndjson"] + lp.total["server.ingest_csv"]), "ratio"}
	m["engine.push_ns_per_pair"] = metric{lp.per("engine.push"), "ns"}
	m["engine.drain_us"] = metric{lp.medianUS("engine.drain"), "us"}
	m["engine.reject_ratio"] = metric{1 - retained/pushed, "ratio"}
	m["engine.sharded_push_ns_per_pair"] = metric{lp.per("engine.sharded_push"), "ns"}
	m["sampling.bottomk_push_ns_per_pair"] = metric{lp.per("sampling.bottomk_push"), "ns"}
	m["sampling.pps_push_ns_per_pair"] = metric{lp.per("sampling.pps_push"), "ns"}
	return nil
}

// writeLayers replays each probe post: the handler, then codec, registry
// and store on the same summary.
func (lp *layerPass) writeLayers(p *probeSet, tmp string, m map[string]metric) error {
	st, err := store.Open(tmp+"/layer-store", store.Options{}, func(string, summary) error { return nil })
	if err != nil {
		return err
	}
	defer st.Close()
	scratch := server.NewRegistry()
	var v2Bytes, entries float64
	for _, q := range p.posts {
		root := lp.rec.newTrace("replay.post")
		var err error
		var hd time.Duration
		allocs, _ := mallocs(func() {
			hd = lp.rec.timed(root, "server.post", nil, func() { err = lp.serve(q) })
		})
		if err != nil {
			return err
		}
		lp.add("server.post", hd, 1)
		lp.count("server.post_allocs", allocs, 1)

		n := float64(q.wantSize)
		counts := map[string]int64{"entries": int64(q.wantSize), "bytes": int64(len(q.body))}
		var view, hyd summary
		var enc1 []byte
		step := func(name string, fn func() error) error {
			var err error
			lp.add(name, lp.rec.timed(root, name, counts, func() { err = fn() }), n)
			return err
		}
		steps := []struct {
			name string
			fn   func() error
		}{
			{"codec.decode_v2_view", func() (err error) { view, err = core.DecodeSummaryViewFrom(bytes.NewReader(q.body)); return }},
			{"codec.decode_v2_hydrate", func() (err error) { hyd, _, err = core.DecodeSummaryFrom(bytes.NewReader(q.body)); return }},
			{"codec.encode_v2", func() (err error) { _, err = core.EncodeSummary(hyd, 2); return }},
			{"codec.encode_v1", func() (err error) { enc1, err = core.EncodeSummary(hyd, 1); return }},
			{"codec.decode_v1", func() (err error) { _, _, err = core.DecodeSummaryFrom(bytes.NewReader(enc1)); return }},
			{"registry.put", func() error { return scratch.PutCtx(lp.ctx, q.dataset, view) }},
		}
		for _, s := range steps {
			if err := step(s.name, s.fn); err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
		}
		var ad time.Duration
		appendAllocs, _ := mallocs(func() {
			ad = lp.rec.timed(root, "store.append", counts, func() { _, err = st.Append(q.dataset, view) })
		})
		if err != nil {
			return err
		}
		lp.add("store.append", ad, 1)
		lp.count("store.append_allocs", appendAllocs, 1)
		v2Bytes += float64(len(q.body))
		entries += n
	}
	m["server.post_us"] = metric{lp.medianUS("server.post"), "us"}
	m["server.post_allocs_per_op"] = metric{lp.per("server.post_allocs"), "count"}
	for _, name := range []string{"encode_v2", "decode_v2_view", "decode_v2_hydrate", "encode_v1", "decode_v1"} {
		m["codec."+name+"_ns_per_entry"] = metric{lp.per("codec." + name), "ns"}
	}
	m["codec.v2_bytes_per_entry"] = metric{v2Bytes / entries, "B"}
	m["registry.put_us"] = metric{lp.medianUS("registry.put"), "us"}
	m["store.append_us"] = metric{lp.medianUS("store.append"), "us"}
	m["store.append_allocs_per_op"] = metric{lp.per("store.append_allocs"), "count"}
	return nil
}

// queryRepeats is how often the layer pass replays each distinct probe
// query.
const queryRepeats = 10

// queryLayers replays each distinct probe query: the handler, then the
// registry lookup, the core reader function, the accuracy bound and the
// JSON encoding it consists of.
func (lp *layerPass) queryLayers(p *probeSet, m map[string]metric) error {
	var outcomes []estimator.PPSOutcome
	for _, q := range p.queries {
		kind := opClassNames[q.class]
		repr := "hydrated"
		if q.view {
			repr = "view"
		}
		for r := 0; r < queryRepeats; r++ {
			root := lp.rec.newTrace("replay." + kind)
			var err error
			var hd time.Duration
			allocs, _ := mallocs(func() {
				hd = lp.rec.timed(root, "server.query", nil, func() { err = lp.serve(q) })
			})
			if err != nil {
				return err
			}
			lp.add("server.query_"+kind, hd, 1)
			lp.count("server.query_allocs", allocs, 1)

			var sums []summary
			gd := lp.rec.timed(root, "registry.get", nil, func() { sums, err = lp.reg.Get(q.dataset, q.instances) })
			if err != nil {
				return err
			}
			lp.add("registry.get", gd, 1)

			var ans answer
			var stderr func() (float64, bool)
			var cd time.Duration
			coreAllocs, _ := mallocs(func() {
				cd = lp.rec.timed(root, "query."+kind, nil, func() { ans, stderr, err = estimate(q, sums) })
			})
			if err != nil {
				return err
			}
			keys := float64(ans.Keys)
			switch {
			case q.class == opSum:
				lp.add("query.sum", cd, float64(sums[0].Size()))
			case q.class == opQuantile:
				lp.add("query.quantile", cd, 1)
			case q.class == opMaxDominance && !q.large:
				lp.add("query.maxdominance_"+repr, cd, keys)
				lp.count("query.maxdominance_allocs", coreAllocs, keys)
			case q.class == opDistinct:
				lp.add("query.distinct_"+repr, cd, keys)
			}
			if stderr != nil {
				lp.add("accuracy.stderr", lp.rec.timed(root, "accuracy.stderr", nil, func() { stderr() }), 1)
			}
			lp.rec.timed(root, "json.encode", nil, func() {
				enc := json.NewEncoder(httptest.NewRecorder())
				enc.SetIndent("", " ")
				err = enc.Encode(responseBody(q, ans))
			})
			if err != nil {
				return err
			}
		}
		if q.class == opMaxDominance && !q.large && outcomes == nil {
			sums, err := lp.reg.Get(q.dataset, q.instances)
			if err != nil {
				return err
			}
			outcomes = ppsOutcomes(sums[0].(core.PPSReader), sums[1].(core.PPSReader))
		}
	}
	for _, kind := range []string{"maxdominance", "distinct", "sum", "quantile"} {
		m["server.query_"+kind+"_us"] = metric{lp.medianUS("server.query_" + kind), "us"}
	}
	var everyQuery []float64
	for c := opMaxDominance; c < numOpClasses; c++ {
		everyQuery = append(everyQuery, lp.each["server.query_"+opClassNames[c]]...)
	}
	m["server.query_us"] = metric{median(everyQuery) / 1e3, "us"}
	m["server.query_allocs_per_op"] = metric{lp.per("server.query_allocs"), "count"}
	m["registry.get_us"] = metric{lp.medianUS("registry.get"), "us"}
	for _, kind := range []string{"maxdominance", "distinct"} {
		for _, repr := range []string{"view", "hydrated"} {
			m["query."+kind+"_ns_per_key_"+repr] = metric{lp.per("query." + kind + "_" + repr), "ns"}
		}
	}
	m["query.sum_ns_per_entry"] = metric{lp.per("query.sum"), "ns"}
	m["query.quantile_us"] = metric{lp.medianUS("query.quantile"), "us"}
	m["query.maxdominance_allocs_per_key"] = metric{lp.per("query.maxdominance_allocs"), "count"}
	m["accuracy.stderr_us"] = metric{lp.per("accuracy.stderr") / 1e3, "us"} // mean: one cheap bound, one per-key pass

	// The per-key estimator kernels on the outcomes of one max-dominance
	// query, enough passes to time a function that takes tens of
	// nanoseconds.
	const kernelPasses = 20
	kernels := []struct {
		name string
		fn   func(estimator.PPSOutcome) float64
	}{{"estimator.maxl2pps", estimator.MaxL2PPS}, {"estimator.maxhtpps", estimator.MaxHTPPS}}
	for _, k := range kernels {
		root := lp.rec.newTrace("replay." + k.name)
		total := 0.0
		d := lp.rec.timed(root, k.name, map[string]int64{"calls": int64(kernelPasses * len(outcomes))}, func() {
			for pass := 0; pass < kernelPasses; pass++ {
				for _, o := range outcomes {
					total += k.fn(o)
				}
			}
		})
		kernelSink = total
		m[k.name+"_ns"] = metric{float64(d.Nanoseconds()) / float64(kernelPasses*len(outcomes)), "ns"}
	}
	return nil
}

var kernelSink float64

// responseBody is the value the handler JSON-encodes for ans.
func responseBody(q *request, ans answer) any {
	switch q.class {
	case opMaxDominance:
		return api.DominanceResult{Dataset: q.dataset, Instances: q.instances, HT: ans.HT, L: ans.L, KeysUsed: ans.Keys}
	case opQuantile:
		return api.QuantileResult{Dataset: q.dataset, Instances: q.instances, Key: q.key, Index: q.l, HT: ans.HT, Sampled: ans.Keys}
	case opSum:
		return api.SumResult{Dataset: q.dataset, Instance: q.instances[0], Sum: ans.Sum}
	}
	return api.DistinctResult{Dataset: q.dataset, Instances: q.instances, HT: ans.HT, L: ans.L, KeysUsed: ans.Keys}
}

// ppsOutcomes builds the per-key sampling outcomes a max-dominance query
// over a and b evaluates its estimators on.
func ppsOutcomes(a, b core.PPSReader) []estimator.PPSOutcome {
	seeder := core.SummarySeeder(a)
	seen := map[dataset.Key]bool{}
	var keys []dataset.Key
	for _, h := range b.AppendKeys(a.AppendKeys(nil)) {
		if !seen[h] {
			seen[h] = true
			keys = append(keys, h)
		}
	}
	out := make([]estimator.PPSOutcome, len(keys))
	for i, h := range keys {
		o := estimator.PPSOutcome{
			Tau:     []float64{a.PPSTau(), b.PPSTau()},
			U:       []float64{seeder.Seed(a.InstanceID(), uint64(h)), seeder.Seed(b.InstanceID(), uint64(h))},
			Sampled: make([]bool, 2),
			Values:  make([]float64, 2),
		}
		if v, ok := a.Lookup(h); ok {
			o.Sampled[0], o.Values[0] = true, v
		}
		if v, ok := b.Lookup(h); ok {
			o.Sampled[1], o.Values[1] = true, v
		}
		out[i] = o
	}
	return out
}

// storeOpen times store.Open replaying a copy of the data directory a
// server was killed on.
func (lp *layerPass) storeOpen(killedDir, tmp string, m map[string]metric) error {
	dir := tmp + "/layer-open"
	if err := copyDir(killedDir, dir); err != nil {
		return err
	}
	reg := server.NewRegistry()
	root := lp.rec.newTrace("replay.recover")
	var st *store.Store
	var err error
	d := lp.rec.timed(root, "store.open", nil, func() { st, err = store.Open(dir, store.Options{}, reg.Put) })
	if err != nil {
		return err
	}
	recovered := float64(st.Status().RecoveredSummaries)
	if err := st.Close(); err != nil {
		return err
	}
	m["store.open_s"] = metric{d.Seconds(), "s"}
	m["store.recover_entries_per_s"] = metric{recovered / d.Seconds(), "1/s"}
	return nil
}

// ledger relates the independently timed layer rows to the handler time
// they are parts of.
func (lp *layerPass) ledger(m map[string]metric) {
	self := selfByName(lp.rec.spans)
	rows := func(names ...string) float64 {
		total := 0.0
		for _, n := range names {
			total += float64(self[n])
		}
		return total
	}
	m["ledger.ingest_coverage"] = metric{rows("engine.push", "engine.drain", "registry.put") / float64(self["server.ingest"]), "ratio"}
	queryRows := rows("registry.get", "accuracy.stderr", "json.encode")
	for c := opMaxDominance; c < numOpClasses; c++ {
		queryRows += float64(self["query."+opClassNames[c]])
	}
	m["ledger.query_coverage"] = metric{queryRows / float64(self["server.query"]), "ratio"}
}

// estimatorQuality compares the estimates over the salted copies of one
// matrix (and one triple of sets) with the ground truth the generator
// knows. The salts make them independent draws of the same sampling
// design, so their scatter around the truth is the estimators' error.
func estimatorQuality(f *queryFixture, m map[string]metric) error {
	var mdHT, mdL, dcHT, dcL []float64 // relative errors
	for i := range f.md {
		a, err := expectedAnswer(&request{class: opMaxDominance}, f.md[i].sums)
		if err != nil {
			return err
		}
		mdHT = append(mdHT, (a.HT-f.truthMaxDom)/f.truthMaxDom)
		mdL = append(mdL, (a.L-f.truthMaxDom)/f.truthMaxDom)
	}
	for i := range f.dc {
		a, err := expectedAnswer(&request{class: opDistinct}, f.dc[i].sums)
		if err != nil {
			return err
		}
		dcHT = append(dcHT, (a.HT-f.truthDistinct)/f.truthDistinct)
		dcL = append(dcL, (a.L-f.truthDistinct)/f.truthDistinct)
	}
	// Sum queries: does the reported stderr match the error actually made?
	var sumErr, sumStdErr []float64
	covered := 0.0
	for i := range f.md {
		for inst, s := range f.md[i].sums {
			a, err := expectedAnswer(&request{class: opSum}, []summary{s})
			if err != nil {
				return err
			}
			e := a.Sum - f.truthSum[inst]
			sumErr = append(sumErr, e)
			sumStdErr = append(sumStdErr, a.StdErr)
			if math.Abs(e) <= core.CI95Z*a.StdErr {
				covered++
			}
		}
	}
	mse := func(v []float64) float64 { r := rms(v); return r * r }
	meanL, varL := meanVar(mdL)
	meanStdErr, _ := meanVar(sumStdErr)
	m["estimator.nrmse_maxdom_l"] = metric{rms(mdL), "ratio"}
	m["estimator.nrmse_distinct_l"] = metric{rms(dcL), "ratio"}
	m["estimator.var_ratio_ht_over_l_maxdom"] = metric{mse(mdHT) / mse(mdL), "ratio"}
	m["estimator.var_ratio_ht_over_l_distinct"] = metric{mse(dcHT) / mse(dcL), "ratio"}
	m["estimator.bias_z_maxdom_l"] = metric{math.Abs(meanL) / math.Sqrt(varL/float64(len(mdL))), "z"}
	m["estimator.ci95_coverage_sum"] = metric{covered / float64(len(sumErr)), "ratio"}
	m["estimator.stderr_ratio_sum"] = metric{rms(sumErr) / meanStdErr, "ratio"}
	return nil
}

// handlerRequest builds the HTTP request pkg/client would send for q.
func handlerRequest(q *request) *http.Request {
	switch {
	case q.class.isIngest():
		format, ct := "ndjson", "application/x-ndjson"
		if q.class == opIngestCSV {
			format, ct = "csv", "text/csv"
		}
		url := fmt.Sprintf("/v1/ingest?dataset=%s&instance=%d&kind=%s&format=%s&salt=%d&shared=false", q.dataset, q.instance, q.kind, format, q.salt)
		if q.kind == "pps" {
			url += fmt.Sprintf("&tau=%g", q.tau)
		} else {
			url += fmt.Sprintf("&k=%d", q.k)
		}
		req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(q.body))
		req.Header.Set("Content-Type", ct)
		return req
	case q.class == opPost:
		req := httptest.NewRequest(http.MethodPost, "/v1/summaries?dataset="+q.dataset, bytes.NewReader(q.body))
		ct := "application/json"
		if v, ok := core.SniffWireVersion(q.body); ok && v == 2 {
			ct = "application/x-summary-v2"
		}
		req.Header.Set("Content-Type", ct)
		return req
	}
	name := opClassNames[q.class]
	if q.class == opBKDistinct {
		name = "distinct"
	}
	url := fmt.Sprintf("/v1/query?dataset=%s&q=%s&instances=", q.dataset, name)
	for i, inst := range q.instances {
		if i > 0 {
			url += ","
		}
		url += fmt.Sprint(inst)
	}
	if q.class == opQuantile {
		url += fmt.Sprintf("&key=%d&l=%d", q.key, q.l)
	}
	req := httptest.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("Accept", "application/json")
	return req
}
