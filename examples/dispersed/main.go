// The dispersed-data loop end to end: summarize at the edge, query
// anywhere.
//
// Three simulated edge sites each hold one instance of a shared key
// universe (think: per-site flow logs). No site ever ships its raw data.
// Instead:
//
//   - site 0 summarizes locally and POSTs the wire-format summary;
//   - site 1 streams its raw pairs as ndjson to the server's ingest
//     endpoint, which summarizes on arrival through the engine pipeline;
//   - site 2 does the same with CSV.
//
// A querying party then asks the server for multi-instance estimates over
// the union — distinct keys, max-dominance norm, a per-key quantile — and
// this program verifies the answers are bit-identical to running the
// estimators in-process on the same summaries: the server adds transport
// and storage, never approximation.
//
// The final act exercises ONE-PASS multi-instance summarization: the
// three sites' streams are combined into a single (key, instance, value)
// stream and summarized with one scan — in-process by routing each pair to
// its instance's core.StreamPPS, and over HTTP through POST
// /v1/ingest/multi, which does the same — and the program asserts every
// resulting summary is bit-identical to the per-instance passes.
//
// Run with: go run ./examples/dispersed
package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/randx"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/xhash"
	"repro/pkg/client"
)

const (
	salt       = 2011
	sharedKeys = 1200
	uniqueKeys = 600
	expectedK  = 400 // expected PPS summary size per site
	setP       = 0.3 // set-sampling probability per site
)

func main() {
	sites := makeSites()

	// A summary server, as summaryd runs it: ingest on the in-line engine,
	// the only one server.New accepts.
	reg := server.NewRegistry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	go func() { _ = http.Serve(ln, server.New(reg, engine.Config{})) }()
	defer ln.Close()

	ctx := context.Background()
	c := client.New("http://"+ln.Addr().String(), nil)
	hr, err := c.Health(ctx)
	check(err)
	fmt.Printf("summary server listening on %s (healthz: %s, %d datasets)\n\n",
		ln.Addr(), hr.Status, hr.Datasets)

	// --- summarize at the edge -----------------------------------------
	summ := core.NewSummarizer(salt)
	taus := make([]float64, len(sites))
	for i, in := range sites {
		taus[i] = sampling.TauForExpectedSize(in, expectedK)
	}

	// Site 0: summarize locally, post the wire-format summaries.
	pps0 := summ.SummarizePPS(0, sites[0], taus[0])
	post, err := c.PostSummary(ctx, "flows", pps0)
	check(err)
	fmt.Printf("site 0: POST /v1/summaries            pps summary, %d keys\n", post.Size)
	set0 := summ.SummarizeSet(0, members(sites[0]), setP)
	_, err = c.PostSummary(ctx, "actives", set0)
	check(err)

	// Site 1: ship the raw stream as ndjson; the server summarizes it.
	post, err = c.Ingest(ctx, client.IngestOptions{
		Dataset: "flows", Instance: 1, Kind: "pps", Format: "ndjson",
		Salt: salt, SaltSet: true, Tau: taus[1],
	}, bytes.NewReader(ndjsonBody(sites[1])))
	check(err)
	fmt.Printf("site 1: POST /v1/ingest (ndjson)      %d pairs -> %d keys\n", post.Pairs, post.Size)
	_, err = c.Ingest(ctx, client.IngestOptions{
		Dataset: "actives", Instance: 1, Kind: "set", Format: "ndjson",
		Salt: salt, SaltSet: true, P: setP,
	}, bytes.NewReader(ndjsonBody(sites[1])))
	check(err)

	// Site 2: the same over CSV.
	post, err = c.Ingest(ctx, client.IngestOptions{
		Dataset: "flows", Instance: 2, Kind: "pps", Format: "csv",
		Salt: salt, SaltSet: true, Tau: taus[2],
	}, bytes.NewReader(csvBody(sites[2])))
	check(err)
	fmt.Printf("site 2: POST /v1/ingest (csv)         %d pairs -> %d keys\n", post.Pairs, post.Size)
	_, err = c.Ingest(ctx, client.IngestOptions{
		Dataset: "actives", Instance: 2, Kind: "set", Format: "csv",
		Salt: salt, SaltSet: true, P: setP,
	}, bytes.NewReader(csvBody(sites[2])))
	check(err)

	// The ingest traffic above shows up in /healthz's engine block: the
	// server folds every pipeline's final counters into running totals,
	// so operators read throughput without /metrics.
	hr, err = c.Health(ctx)
	check(err)
	fmt.Printf("engine health: %d pairs across %d ingests\n\n", hr.Engine.Pairs, hr.Engine.Ingests)

	// --- the same summaries, built in-process --------------------------
	// The ingest path must reproduce local summarization exactly: ranks
	// depend only on (salt, key, value), never on where sampling ran.
	ppsLocal := []core.PPSReader{
		pps0,
		summ.SummarizePPS(1, sites[1], taus[1]),
		summ.SummarizePPS(2, sites[2], taus[2]),
	}
	setLocal := []core.SetReader{
		set0,
		summ.SummarizeSet(1, members(sites[1]), setP),
		summ.SummarizeSet(2, members(sites[2]), setP),
	}

	// --- query the union ------------------------------------------------
	hot, truthQ := hottestSharedKey(sites)
	fmt.Printf("\nquerying the union of all three sites:\n\n")
	fmt.Printf("%-34s %14s %14s %14s\n", "query", "HT", "L", "truth")

	srvD, err := c.Distinct(ctx, "actives")
	check(err)
	locD, err := core.DistinctCountMultiReaders(setLocal, nil)
	check(err)
	mustEqual("distinct", srvD.HT, locD.HT)
	mustEqual("distinct", srvD.L, locD.L)
	fmt.Printf("%-34s %14.6g %14.6g %14d\n",
		"distinct keys (3 set summaries)", srvD.HT, srvD.L, unionSize(sites))

	srvM, err := c.MaxDominance(ctx, "flows", 0, 1)
	check(err)
	locM, err := core.MaxDominanceReaders(ppsLocal[0], ppsLocal[1], nil)
	check(err)
	mustEqual("maxdominance", srvM.HT, locM.HT)
	mustEqual("maxdominance", srvM.L, locM.L)
	fmt.Printf("%-34s %14.6g %14.6g %14.6g\n",
		"max-dominance (sites 0,1)", srvM.HT, srvM.L, maxDominanceTruth(sites[0], sites[1]))

	srvQ, err := c.Quantile(ctx, "flows", uint64(hot), 2)
	check(err)
	locQ, err := core.QuantilePPSReaders(ppsLocal, hot, 2)
	check(err)
	mustEqual("quantile", srvQ.HT, locQ.HT)
	fmt.Printf("%-34s %14.6g %14s %14.6g\n",
		fmt.Sprintf("median of key %d across sites", hot), srvQ.HT, "-", truthQ)

	srvS, err := c.Sum(ctx, "flows", 2)
	check(err)
	locS := ppsLocal[2].SubsetSum(nil)
	mustEqual("sum", srvS.Sum, locS)
	fmt.Printf("%-34s %14.6g %14s %14.6g\n",
		"site 2 total (subset sum)", srvS.Sum, "-", sites[2].Total())

	fmt.Printf("\nevery server answer is bit-identical to the in-process estimate ✓\n")
	fmt.Printf("(the summaries travelled as ~%d keys per site instead of %d raw pairs)\n",
		expectedK, sharedKeys+uniqueKeys)

	// --- one pass, all instances ----------------------------------------
	// The same three sites again, but now their streams are combined into
	// one (key, instance, value) stream and every instance is summarized
	// with a single scan: one in-line stream per instance.
	fmt.Printf("\none-pass multi-instance summarization:\n\n")
	ids := []int{0, 1, 2}
	streams := make([]*core.WeightedStream, len(ids))
	for i, id := range ids {
		streams[i] = summ.StreamPPS(engine.Config{}, id, taus[i])
	}
	for _, m := range combinedStream(sites) {
		streams[m.site].Push(m.key, m.value)
	}
	for i, st := range streams {
		mustEqualSummary(fmt.Sprintf("one-pass pps instance %d", i), st.Close(), ppsLocal[i])
	}
	fmt.Printf("in-process: 1 scan over %d combined pairs == 3 per-instance scans (bit-identical) ✓\n",
		3*(sharedKeys+uniqueKeys))

	// Over HTTP: one POST /v1/ingest/multi populates every instance of a
	// fresh dataset, and the stored summaries answer queries with exactly
	// the bits of the per-instance path.
	mpost, err := c.IngestMulti(ctx, client.MultiIngestOptions{
		Dataset: "flows1p", Instances: ids, Kind: "pps", Format: "ndjson",
		Salt: salt, SaltSet: true, Taus: taus,
	}, bytes.NewReader(multiNdjsonBody(sites)))
	check(err)
	fmt.Printf("POST /v1/ingest/multi: %d pairs -> %d instances, sizes %v\n",
		mpost.Pairs, len(mpost.Instances), mpost.Sizes)

	srvM1, err := c.MaxDominance(ctx, "flows1p", 0, 1)
	check(err)
	mustEqual("one-pass maxdominance", srvM1.HT, locM.HT)
	mustEqual("one-pass maxdominance", srvM1.L, locM.L)
	srvS1, err := c.Sum(ctx, "flows1p", 2)
	check(err)
	mustEqual("one-pass sum", srvS1.Sum, locS)
	fmt.Printf("queries over the one-pass dataset match the per-instance path bit for bit ✓\n")

	// --- wire formats: v2 binary posts mixed with v1 JSON ----------------
	// The same summaries once more, but now the wire format varies per
	// site: site 0 posts its summary as v1 JSON bytes, sites 1 and 2 post
	// summary values, which the client sends as v2 binary. The wire format
	// changes bytes, never estimates — so the mixed dataset must answer
	// every query with exactly the bits of the in-process estimate.
	fmt.Printf("\nwire formats (v1 JSON vs v2 binary):\n\n")
	if hr.WireVersions == nil {
		fmt.Fprintln(os.Stderr, "healthz advertises no wire versions")
		os.Exit(1)
	}
	fmt.Printf("server speaks wire versions %v (healthz)\n", hr.WireVersions)

	v1site0, err := core.EncodeSummary(ppsLocal[0], 1)
	check(err)
	postMix, err := c.PostSummary(ctx, "flowsmix", v1site0)
	check(err)
	if postMix.Wire != 1 {
		fmt.Fprintf(os.Stderr, "v1 post stored as wire %d\n", postMix.Wire)
		os.Exit(1)
	}
	for i := 1; i <= 2; i++ {
		postMix, err = c.PostSummary(ctx, "flowsmix", ppsLocal[i])
		check(err)
		if postMix.Wire != 2 {
			fmt.Fprintf(os.Stderr, "v2 post stored as wire %d\n", postMix.Wire)
			os.Exit(1)
		}
	}
	v1bytes, err := core.EncodeSummary(ppsLocal[1], 1)
	check(err)
	v2bytes, err := core.EncodeSummary(ppsLocal[1], 2)
	check(err)
	fmt.Printf("site 1 summary: %d bytes as JSON, %d bytes as v2 binary (%.0f%%)\n",
		len(v1bytes), len(v2bytes), 100*float64(len(v2bytes))/float64(len(v1bytes)))

	srvMixM, err := c.MaxDominance(ctx, "flowsmix", 0, 1)
	check(err)
	mustEqual("mixed-wire maxdominance", srvMixM.HT, locM.HT)
	mustEqual("mixed-wire maxdominance", srvMixM.L, locM.L)
	srvMixQ, err := c.Quantile(ctx, "flowsmix", uint64(hot), 2)
	check(err)
	mustEqual("mixed-wire quantile", srvMixQ.HT, locQ.HT)
	srvMixS, err := c.Sum(ctx, "flowsmix", 2)
	check(err)
	mustEqual("mixed-wire sum", srvMixS.Sum, locS)
	fmt.Printf("mixed v1/v2 dataset answers every query bit-identically to the in-process estimate ✓\n")

	// Fetch-back negotiates per request: the same stored instance comes
	// home as binary (FetchDecodedSummary asks for v2) and as JSON
	// (FetchSummary), decoding to bit-equal samples either way.
	dec, err := c.FetchDecodedSummary(ctx, "flowsmix", 1)
	check(err)
	decPPS, ok := dec.(*core.PPSSummary)
	if !ok || !core.Combinable(decPPS, ppsLocal[1]) {
		fmt.Fprintln(os.Stderr, "v2 fetch-back lost the summary's randomization")
		os.Exit(1)
	}
	mustEqualSummary("v2 fetch-back", decPPS, ppsLocal[1])
	raw, err := c.FetchSummary(ctx, "flowsmix", 1)
	check(err)
	decJSON, err := core.DecodeSummary(raw)
	check(err)
	mustEqualSummary("v1 fetch-back", decJSON, ppsLocal[1])
	fmt.Printf("fetch-back in both wire formats decodes to the same summary ✓\n")

	// --- durability: kill the server, recover, re-ask -------------------
	// The acts above lose everything if summaryd restarts. Now the same
	// posts go to a server backed by internal/store (summaryd -data-dir):
	// every accepted summary is WAL-appended before it is acknowledged.
	// The server is then killed without any farewell snapshot and a fresh
	// process recovers the registry from disk — and must answer every
	// query with the exact bits of the pre-kill answers.
	fmt.Printf("\ndurability (WAL + snapshot recovery):\n\n")
	dir, err := os.MkdirTemp("", "dispersed-store-")
	check(err)
	defer os.RemoveAll(dir)

	regD := server.NewRegistry()
	st, err := store.Open(dir, store.Options{}, regD.Put)
	check(err)
	regD.SetPersister(st)
	lnD, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	go func() {
		_ = http.Serve(lnD, server.New(regD, engine.Config{}, server.WithStoreStatus(st.Status)))
	}()
	cD := client.New("http://"+lnD.Addr().String(), nil)
	for i := range ppsLocal {
		_, err = cD.PostSummary(ctx, "flows", ppsLocal[i])
		check(err)
	}
	// One raw ingest too: the ingest path persists through the same hook.
	_, err = cD.Ingest(ctx, client.IngestOptions{
		Dataset: "actives", Instance: 0, Kind: "set", Format: "csv",
		Salt: salt, SaltSet: true, P: setP,
	}, bytes.NewReader(csvBody(sites[0])))
	check(err)

	beforeM, err := cD.MaxDominance(ctx, "flows", 0, 1)
	check(err)
	beforeQ, err := cD.Quantile(ctx, "flows", uint64(hot), 2)
	check(err)
	beforeS, err := cD.Sum(ctx, "flows", 2)
	check(err)
	hrD, err := cD.Health(ctx)
	check(err)
	fmt.Printf("durable server: %d datasets, WAL holds %d records (%d bytes)\n",
		hrD.Datasets, hrD.Store.WALRecords, hrD.Store.WALBytes)

	// Kill: drop the listener and the store with no farewell snapshot —
	// the graceful-shutdown step a crash never gets. (Close releases the
	// data dir's single-owner lock so this process can reopen it; every
	// acknowledged post was already flushed to the WAL at append time, so
	// recovery owes us all four summaries from log replay alone. CI kills
	// a real summaryd with SIGKILL for the no-Close-at-all variant.)
	lnD.Close()
	check(st.Close())

	regR := server.NewRegistry()
	stR, err := store.Open(dir, store.Options{}, regR.Put)
	check(err)
	regR.SetPersister(stR)
	lnR, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	defer lnR.Close()
	go func() {
		_ = http.Serve(lnR, server.New(regR, engine.Config{}, server.WithStoreStatus(stR.Status)))
	}()
	cR := client.New("http://"+lnR.Addr().String(), nil)
	hrR, err := cR.Health(ctx)
	check(err)
	if hrR.Store == nil || hrR.Store.RecoveredSummaries != 4 {
		fmt.Fprintf(os.Stderr, "recovery expected 4 summaries, health says %+v\n", hrR.Store)
		os.Exit(1)
	}
	fmt.Printf("killed and restarted: recovered %d summaries in %d datasets from %s\n",
		hrR.Store.RecoveredSummaries, hrR.Store.RecoveredDatasets, dir)

	afterM, err := cR.MaxDominance(ctx, "flows", 0, 1)
	check(err)
	mustEqual("recovered maxdominance", afterM.HT, beforeM.HT)
	mustEqual("recovered maxdominance", afterM.L, beforeM.L)
	afterQ, err := cR.Quantile(ctx, "flows", uint64(hot), 2)
	check(err)
	mustEqual("recovered quantile", afterQ.HT, beforeQ.HT)
	afterS, err := cR.Sum(ctx, "flows", 2)
	check(err)
	mustEqual("recovered sum", afterS.Sum, beforeS.Sum)
	fmt.Printf("every query answers bit-identically across the kill/recover cycle ✓\n")

	// --- request tracing: one traceparent from client to WAL -------------
	// The observability counterpart of the acts above: a traced server (as
	// summaryd runs with -trace) records one span tree per request. The
	// client opens its own root span, the traceparent header carries it
	// over HTTP, the server's request span joins the client's trace, and
	// the store's WAL append records as a grandchild — three layers from
	// one trace ID, all served back on GET /debug/traces.
	fmt.Printf("\nrequest tracing (client → server → store):\n\n")
	tracer := trace.New(16)
	dirT, err := os.MkdirTemp("", "dispersed-trace-")
	check(err)
	defer os.RemoveAll(dirT)
	regT := server.NewRegistry()
	stT, err := store.Open(dirT, store.Options{Tracer: tracer}, regT.Put)
	check(err)
	defer stT.Close()
	regT.SetPersister(stT)
	lnT, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	defer lnT.Close()
	go func() {
		_ = http.Serve(lnT, server.New(regT, engine.Config{},
			server.WithObserver(server.NewObserver(obs.NewRegistry())),
			server.WithTracer(tracer)))
	}()
	cT := client.New("http://"+lnT.Addr().String(), nil)

	root := tracer.StartSpan("dispersed.post", trace.SpanContext{})
	_, err = cT.PostSummary(trace.ContextWithSpan(ctx, root), "flows", ppsLocal[0])
	check(err)
	root.Finish()

	var serverRec *trace.Record
	for _, rec := range tracer.Traces() {
		if rec.TraceID == root.TraceID() && rec.RemoteParent {
			serverRec = &rec
			break
		}
	}
	if serverRec == nil {
		fmt.Fprintln(os.Stderr, "tracing: no server-side record joined the client's trace")
		os.Exit(1)
	}
	byID := make(map[string]trace.SpanRecord)
	for _, sp := range serverRec.Spans {
		byID[sp.SpanID] = sp
	}
	depth := 0
	for _, sp := range serverRec.Spans {
		if sp.Name != "store.append" {
			continue
		}
		// Walk up to the request root: client layer + the chain here.
		depth = 2 // the client's root span + this store span
		for p := sp.ParentID; p != ""; p = byID[p].ParentID {
			depth++
		}
	}
	if depth < 3 {
		fmt.Fprintf(os.Stderr, "tracing: want >= 3 span layers, got %d (%+v)\n", depth, serverRec.Spans)
		os.Exit(1)
	}
	fmt.Printf("trace %s: %d span layers (client root -> server %s -> store.append)\n",
		root.TraceID(), depth, serverRec.Spans[0].Name)
	fmt.Printf("one POST produced a multi-hop trace across process boundaries ✓\n")
}

// multiNdjsonBody renders all sites as one combined (key, instance,
// value) ndjson stream, interleaved by key.
func multiNdjsonBody(sites []dataset.Instance) []byte {
	var buf bytes.Buffer
	for _, m := range combinedStream(sites) {
		fmt.Fprintf(&buf, "{\"key\":%d,\"instance\":%d,\"value\":%g}\n", uint64(m.key), m.site, m.value)
	}
	return buf.Bytes()
}

// sitePair is one (key, instance, value) arrival of the combined stream;
// the instance is the site's index.
type sitePair struct {
	key   dataset.Key
	site  int
	value float64
}

// combinedStream interleaves all sites into one (key, instance, value)
// stream, ordered by key and then by site.
func combinedStream(sites []dataset.Instance) []sitePair {
	seen := make(map[dataset.Key]bool)
	for _, in := range sites {
		for h := range in {
			seen[h] = true
		}
	}
	keys := make([]dataset.Key, 0, len(seen))
	for h := range seen {
		keys = append(keys, h)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var out []sitePair
	for _, h := range keys {
		for i, in := range sites {
			if v, ok := in[h]; ok {
				out = append(out, sitePair{key: h, site: i, value: v})
			}
		}
	}
	return out
}

// mustEqualSummary asserts that two summaries are the same summary: equal
// parameters and equal entries, bit for bit — which is to say equal v2
// encodings.
func mustEqualSummary(what string, got, want core.Summary) {
	g, err := core.EncodeSummary(got, 2)
	check(err)
	w, err := core.EncodeSummary(want, 2)
	check(err)
	if !bytes.Equal(g, w) {
		fmt.Fprintf(os.Stderr, "%s: summaries differ (%d vs %d entries)\n", what, got.Size(), want.Size())
		os.Exit(1)
	}
}

// flowID maps a small sequence number to a realistic 64-bit flow
// identifier, the kind of key edge sites actually hold (hashes of
// 5-tuples, not 1, 2, 3, …). Full-width keys are also what makes the v2
// byte comparison honest: JSON spells all ~20 digits of each one.
func flowID(seq uint64) dataset.Key {
	return dataset.Key(xhash.Mix64(0x9E3779B97F4A7C15 ^ seq))
}

// makeSites builds three overlapping heavy-tailed instances: sharedKeys
// keys active at every site (correlated values), plus uniqueKeys
// site-local keys each.
func makeSites() []dataset.Instance {
	rng := randx.New(7)
	sites := make([]dataset.Instance, 3)
	for i := range sites {
		sites[i] = make(dataset.Instance, sharedKeys+uniqueKeys)
	}
	seq := uint64(1)
	for i := 0; i < sharedKeys; i++ {
		base := math.Floor(rng.Pareto(4, 1.3)) + 1
		key := flowID(seq)
		for s := range sites {
			v := math.Floor(base * (0.5 + rng.Float64()))
			if v < 1 {
				v = 1
			}
			sites[s][key] = v
		}
		seq++
	}
	for s := range sites {
		for i := 0; i < uniqueKeys; i++ {
			sites[s][flowID(seq)] = math.Floor(rng.Pareto(4, 1.3)) + 1
			seq++
		}
	}
	return sites
}

func members(in dataset.Instance) map[dataset.Key]bool {
	m := make(map[dataset.Key]bool, len(in))
	for h := range in {
		m[h] = true
	}
	return m
}

func ndjsonBody(in dataset.Instance) []byte {
	var buf bytes.Buffer
	for _, h := range in.Keys() {
		fmt.Fprintf(&buf, "{\"key\":%d,\"value\":%g}\n", uint64(h), in[h])
	}
	return buf.Bytes()
}

func csvBody(in dataset.Instance) []byte {
	var buf bytes.Buffer
	buf.WriteString("key,value\n")
	for _, h := range in.Keys() {
		fmt.Fprintf(&buf, "%d,%g\n", uint64(h), in[h])
	}
	return buf.Bytes()
}

// hottestSharedKey picks the shared key with the largest minimum value
// across sites — a key every summary is near-certain to retain, so its
// quantile is determined — and returns it with the true median.
func hottestSharedKey(sites []dataset.Instance) (dataset.Key, float64) {
	var best dataset.Key
	bestMin := -1.0
	for seq := uint64(1); seq <= sharedKeys; seq++ {
		h := flowID(seq)
		m := math.Inf(1)
		for _, in := range sites {
			if v := in[h]; v < m {
				m = v
			}
		}
		if m > bestMin {
			best, bestMin = h, m
		}
	}
	v := make([]float64, len(sites))
	for i, in := range sites {
		v[i] = in[best]
	}
	// Median of three: the value that is neither the max nor the min.
	a, b, c := v[0], v[1], v[2]
	med := math.Max(math.Min(a, b), math.Min(math.Max(a, b), c))
	return best, med
}

func unionSize(sites []dataset.Instance) int {
	seen := make(map[dataset.Key]bool)
	for _, in := range sites {
		for h := range in {
			seen[h] = true
		}
	}
	return len(seen)
}

func maxDominanceTruth(a, b dataset.Instance) float64 {
	return dataset.NewMatrix(a, b).SumAggregate(dataset.Max, nil)
}

func mustEqual(what string, server, direct float64) {
	if server != direct {
		fmt.Fprintf(os.Stderr, "%s: server %v != direct %v\n", what, server, direct)
		os.Exit(1)
	}
}

// mustClose asserts agreement within an absolute tolerance — for the
// randomized comparisons where bit-equality is not the contract.
func mustClose(what string, got, want, tol float64) {
	if math.Abs(got-want) > tol {
		fmt.Fprintf(os.Stderr, "%s: %v != %v (tolerance %v)\n", what, got, want, tol)
		os.Exit(1)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
