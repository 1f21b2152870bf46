// The dispersed-data loop end to end: summarize at the edge, query
// anywhere.
//
// Three simulated edge sites each hold one instance of a shared key
// universe (think: per-site flow logs). No site ever ships its raw data.
// Instead:
//
//   - site 0 summarizes locally and POSTs the wire-format summary;
//   - site 1 streams its raw pairs as ndjson to the server's ingest
//     endpoint, which summarizes them on arrival in one in-line stream;
//   - site 2 does the same with CSV.
//
// A querying party then asks the server for multi-instance estimates over
// the union — distinct keys, max-dominance norm, a per-key quantile — and
// this program verifies the answers are bit-identical to running the
// estimators in-process on the same summaries: the server adds transport
// and storage, never approximation.
//
// Two more acts reach the same answers by other routes: ONE-PASS
// summarization of the three sites' streams combined into one (key,
// instance, value) stream — in-process by routing each pair to its
// instance's core.StreamPPS, and over HTTP through POST /v1/ingest/multi —
// and posts in mixed wire formats (v1 JSON, v2 binary), fetched back in
// both. That stored summaries survive a SIGKILL of summaryd is held by
// cmd/summaryd's TestKillRecover.
//
// Run with: go run ./examples/dispersed (its output is pinned by
// testdata/dispersed.golden; go test ./examples/dispersed -update re-records it).
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"slices"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/randx"
	"repro/internal/sampling"
	"repro/internal/server"
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
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run drives the sites and the querying party through a summary server on
// a loopback port and writes the report to w. It fails on the first
// server answer or summary that differs from the in-process one.
func run(w io.Writer) error {
	sites := makeSites()

	// A summary server, as summaryd runs it: ingest on the in-line engine,
	// the only one server.New accepts.
	srv := httptest.NewServer(server.New(server.NewRegistry(), engine.Config{}))
	defer srv.Close()

	ctx := context.Background()
	c := client.New(srv.URL, srv.Client())
	hr, err := c.Health(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "summary server up (healthz: %s, %d datasets)\n\n", hr.Status, hr.Datasets)

	// --- summarize at the edge -----------------------------------------
	summ := core.NewSummarizer(salt)
	taus := make([]float64, len(sites))
	for i, in := range sites {
		taus[i] = sampling.TauForExpectedSize(in, expectedK)
	}

	// Site 0: summarize locally, post the wire-format summaries.
	pps0 := summ.SummarizePPS(0, sites[0], taus[0])
	post, err := c.PostSummary(ctx, "flows", pps0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-37s pps summary, %d keys\n", "site 0: POST /v1/summaries", post.Size)
	set0 := summ.SummarizeSet(0, members(sites[0]), setP)
	if _, err := c.PostSummary(ctx, "actives", set0); err != nil {
		return err
	}

	// Sites 1 and 2: ship the raw stream, as ndjson and as CSV; the server
	// summarizes it.
	for _, s := range []struct {
		site   int
		format string
		body   []byte
	}{
		{1, "ndjson", ndjsonBody(sites[1])},
		{2, "csv", csvBody(sites[2])},
	} {
		post, err := c.Ingest(ctx, client.IngestOptions{
			Dataset: "flows", Instance: s.site, Kind: "pps", Format: s.format,
			Salt: salt, SaltSet: true, Tau: taus[s.site],
		}, bytes.NewReader(s.body))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-37s %d pairs -> %d keys\n",
			fmt.Sprintf("site %d: POST /v1/ingest (%s)", s.site, s.format), post.Pairs, post.Size)
		if _, err := c.Ingest(ctx, client.IngestOptions{
			Dataset: "actives", Instance: s.site, Kind: "set", Format: s.format,
			Salt: salt, SaltSet: true, P: setP,
		}, bytes.NewReader(s.body)); err != nil {
			return err
		}
	}

	// The ingest traffic above shows up in /healthz's engine block: the
	// server folds every pipeline's final counters into running totals,
	// so operators read throughput without /metrics.
	hr, err = c.Health(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "engine health: %d pairs across %d ingests\n\n", hr.Engine.Pairs, hr.Engine.Ingests)

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
	want, err := estimate(ppsLocal, hot)
	if err != nil {
		return err
	}
	if err := match(ctx, c, "flows", hot, want); err != nil {
		return err
	}
	srvD, err := c.Distinct(ctx, "actives")
	if err != nil {
		return err
	}
	locD, err := core.DistinctCountMultiReaders(setLocal, nil)
	if err != nil {
		return err
	}
	if srvD.HT != locD.HT || srvD.L != locD.L {
		return fmt.Errorf("distinct: server HT %v L %v, in-process HT %v L %v", srvD.HT, srvD.L, locD.HT, locD.L)
	}
	fmt.Fprintf(w, "querying the union of all three sites:\n\n")
	fmt.Fprintf(w, "%-34s %14s %14s %14s\n", "query", "HT", "L", "truth")
	fmt.Fprintf(w, "%-34s %14.6g %14.6g %14d\n",
		"distinct keys (3 set summaries)", srvD.HT, srvD.L, len(unionKeys(sites)))
	fmt.Fprintf(w, "%-34s %14.6g %14.6g %14.6g\n",
		"max-dominance (sites 0,1)", want.maxHT, want.maxL, maxDominanceTruth(sites[0], sites[1]))
	fmt.Fprintf(w, "%-34s %14.6g %14s %14.6g\n",
		fmt.Sprintf("median of key %d across sites", hot), want.median, "-", truthQ)
	fmt.Fprintf(w, "%-34s %14.6g %14s %14.6g\n",
		"site 2 total (subset sum)", want.sum, "-", sites[2].Total())

	fmt.Fprintf(w, "\nevery server answer is bit-identical to the in-process estimate ✓\n")
	fmt.Fprintf(w, "(the summaries travelled as ~%d keys per site instead of %d raw pairs)\n",
		expectedK, sharedKeys+uniqueKeys)

	// --- one pass, all instances ----------------------------------------
	// The same three sites again, but now their streams are combined into
	// one (key, instance, value) stream and every instance is summarized
	// with a single scan: one in-line stream per instance.
	fmt.Fprintf(w, "\none-pass multi-instance summarization:\n\n")
	ids := []int{0, 1, 2}
	streams := make([]*core.WeightedStream, len(ids))
	for i, id := range ids {
		streams[i] = summ.StreamPPS(engine.Config{}, id, taus[i])
	}
	for _, m := range combinedStream(sites) {
		streams[m.site].Push(m.key, m.value)
	}
	for i, st := range streams {
		if err := sameSummary(fmt.Sprintf("one-pass pps instance %d", i), st.Close(), ppsLocal[i]); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "in-process: 1 scan over %d combined pairs == 3 per-instance scans (bit-identical) ✓\n",
		3*(sharedKeys+uniqueKeys))

	// Over HTTP: one POST /v1/ingest/multi populates every instance of a
	// fresh dataset, and the stored summaries answer queries with exactly
	// the bits of the per-instance path.
	mpost, err := c.IngestMulti(ctx, client.MultiIngestOptions{
		Dataset: "flows1p", Instances: ids, Kind: "pps", Format: "ndjson",
		Salt: salt, SaltSet: true, Taus: taus,
	}, bytes.NewReader(multiNdjsonBody(sites)))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "POST /v1/ingest/multi: %d pairs -> %d instances, sizes %v\n",
		mpost.Pairs, len(mpost.Instances), mpost.Sizes)
	if err := match(ctx, c, "flows1p", hot, want); err != nil {
		return err
	}
	fmt.Fprintf(w, "queries over the one-pass dataset match the per-instance path bit for bit ✓\n")

	// --- wire formats: v2 binary posts mixed with v1 JSON ----------------
	// The same summaries once more, but now the wire format varies per
	// site: site 0 posts its summary as v1 JSON bytes, sites 1 and 2 post
	// summary values, which the client sends as v2 binary. The wire format
	// changes bytes, never estimates — so the mixed dataset must answer
	// every query with exactly the bits of the in-process estimate.
	fmt.Fprintf(w, "\nwire formats (v1 JSON vs v2 binary):\n\n")
	fmt.Fprintf(w, "server speaks wire versions %v (healthz)\n", hr.WireVersions)
	for i, s := range ppsLocal {
		var body any = s
		wire := 2
		if i == 0 {
			if body, err = core.EncodeSummary(s, 1); err != nil {
				return err
			}
			wire = 1
		}
		post, err := c.PostSummary(ctx, "flowsmix", body)
		if err != nil {
			return err
		}
		if post.Wire != wire {
			return fmt.Errorf("site %d: posted as wire %d, stored as wire %d", i, wire, post.Wire)
		}
	}
	v1bytes, err := core.EncodeSummary(ppsLocal[1], 1)
	if err != nil {
		return err
	}
	v2bytes, err := core.EncodeSummary(ppsLocal[1], 2)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "site 1 summary: %d bytes as JSON, %d bytes as v2 binary (%.0f%%)\n",
		len(v1bytes), len(v2bytes), 100*float64(len(v2bytes))/float64(len(v1bytes)))
	if err := match(ctx, c, "flowsmix", hot, want); err != nil {
		return err
	}
	fmt.Fprintf(w, "mixed v1/v2 dataset answers every query bit-identically to the in-process estimate ✓\n")

	// Fetch-back negotiates per request: the same stored instance comes
	// home as binary (FetchDecodedSummary asks for v2) and as JSON
	// (FetchSummary), decoding to bit-equal samples either way.
	dec, err := c.FetchDecodedSummary(ctx, "flowsmix", 1)
	if err != nil {
		return err
	}
	if decPPS, ok := dec.(*core.PPSSummary); !ok || !core.Combinable(decPPS, ppsLocal[1]) {
		return fmt.Errorf("v2 fetch-back lost the summary's randomization")
	}
	if err := sameSummary("v2 fetch-back", dec, ppsLocal[1]); err != nil {
		return err
	}
	raw, err := c.FetchSummary(ctx, "flowsmix", 1)
	if err != nil {
		return err
	}
	decJSON, err := core.DecodeSummary(raw)
	if err != nil {
		return err
	}
	if err := sameSummary("v1 fetch-back", decJSON, ppsLocal[1]); err != nil {
		return err
	}
	fmt.Fprintf(w, "fetch-back in both wire formats decodes to the same summary ✓\n")
	return nil
}

// answers are the estimates every act asks of a PPS dataset: max-dominance
// over sites 0 and 1 (HT and L), the median of one key across the three
// sites (HT) and site 2's subset sum.
type answers struct {
	maxHT, maxL, median, sum float64
}

// estimate computes the answers in-process from the sites' summaries.
func estimate(sums []core.PPSReader, hot dataset.Key) (answers, error) {
	m, err := core.MaxDominanceReaders(sums[0], sums[1], nil)
	if err != nil {
		return answers{}, err
	}
	q, err := core.QuantilePPSReaders(sums, hot, 2)
	if err != nil {
		return answers{}, err
	}
	return answers{maxHT: m.HT, maxL: m.L, median: q.HT, sum: sums[2].SubsetSum(nil)}, nil
}

// match asks the server's dataset for the answers and fails unless every
// one equals want.
func match(ctx context.Context, c *client.Client, ds string, hot dataset.Key, want answers) error {
	m, err := c.MaxDominance(ctx, ds, 0, 1)
	if err != nil {
		return err
	}
	q, err := c.Quantile(ctx, ds, uint64(hot), 2)
	if err != nil {
		return err
	}
	s, err := c.Sum(ctx, ds, 2)
	if err != nil {
		return err
	}
	if got := (answers{maxHT: m.HT, maxL: m.L, median: q.HT, sum: s.Sum}); got != want {
		return fmt.Errorf("%s: server answers %+v, in-process %+v", ds, got, want)
	}
	return nil
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
	var out []sitePair
	for _, h := range unionKeys(sites) {
		for i, in := range sites {
			if v, ok := in[h]; ok {
				out = append(out, sitePair{key: h, site: i, value: v})
			}
		}
	}
	return out
}

// unionKeys returns every key active at some site, ascending.
func unionKeys(sites []dataset.Instance) []dataset.Key {
	seen := make(map[dataset.Key]bool)
	var keys []dataset.Key
	for _, in := range sites {
		for h := range in {
			if !seen[h] {
				seen[h] = true
				keys = append(keys, h)
			}
		}
	}
	slices.Sort(keys)
	return keys
}

// sameSummary fails unless two summaries are the same summary: equal
// parameters and equal entries, bit for bit — which is to say equal v2
// encodings.
func sameSummary(what string, got, want core.Summary) error {
	g, err := core.EncodeSummary(got, 2)
	if err != nil {
		return err
	}
	w, err := core.EncodeSummary(want, 2)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("%s: summaries differ (%d vs %d entries)", what, got.Size(), want.Size())
	}
	return nil
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

func maxDominanceTruth(a, b dataset.Instance) float64 {
	return dataset.NewMatrix(a, b).SumAggregate(dataset.Max, nil)
}
