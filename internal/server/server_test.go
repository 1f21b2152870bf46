package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/randx"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/pkg/api"
	"repro/pkg/client"
)

const testSalt = 2011

// fixture builds three overlapping weighted instances.
func fixture(n int) []dataset.Instance {
	rng := randx.New(11)
	sites := make([]dataset.Instance, 3)
	for i := range sites {
		sites[i] = make(dataset.Instance)
	}
	for k := 1; k <= n; k++ {
		h := dataset.Key(k)
		placed := false
		for i := range sites {
			if rng.Float64() < 0.6 {
				sites[i][h] = math.Floor(1 + 40*rng.Float64())
				placed = true
			}
		}
		if !placed {
			sites[rng.Intn(3)][h] = math.Floor(1 + 40*rng.Float64())
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

func startServer(t testing.TB, cfg engine.Config) (*client.Client, func()) {
	t.Helper()
	ts := httptest.NewServer(server.New(server.NewRegistry(), cfg))
	return client.New(ts.URL, ts.Client()), ts.Close
}

// TestNewAcceptsOnlyInLineEngine pins New's construction contract: the
// ingest path runs the in-line engine, so New takes a config that
// describes it (one shard, no Async) and panics on any other.
func TestNewAcceptsOnlyInLineEngine(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  engine.Config
		ok   bool
	}{
		{"zero", engine.Config{}, true},
		{"one shard", engine.Config{Shards: 1, BatchSize: engine.DefaultBatchSize}, true},
		{"sharded", engine.Config{Parallel: true, Shards: 2}, false},
		{"async", engine.Config{Async: true}, false},
		{"sharded async", engine.Config{Parallel: true, Shards: 3, Async: true, QueueDepth: 2}, false},
		{"negative batch", engine.Config{BatchSize: -1}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); (r == nil) != tc.ok {
					t.Errorf("New(%+v) panicked with %v; want a panic: %v", tc.cfg, r, !tc.ok)
				}
			}()
			server.New(server.NewRegistry(), tc.cfg)
		})
	}
}

// TestServerEndToEnd drives the full dispersed loop over HTTP — post a
// wire-format summary, ingest raw ndjson and CSV streams — and checks
// every query answer is bit-identical to the corresponding in-process
// estimate.
func TestServerEndToEnd(t *testing.T) {
	sites := fixture(1500)
	c, closeSrv := startServer(t, engine.Config{})
	defer closeSrv()
	ctx := context.Background()
	if hr, err := c.Health(ctx); err != nil || hr.Status != "ok" || hr.Datasets != 0 {
		t.Fatalf("Health = %+v, %v; want ok with 0 datasets", hr, err)
	}

	summ := core.NewSummarizer(testSalt)
	taus := make([]float64, 3)
	for i, in := range sites {
		taus[i] = sampling.TauForExpectedSize(in, 150)
	}

	// Site 0 posts wire summaries; sites 1 and 2 ingest raw.
	pps0 := summ.SummarizePPS(0, sites[0], taus[0])
	if _, err := c.PostSummary(ctx, "flows", pps0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PostSummary(ctx, "actives", summ.SummarizeSet(0, members(sites[0]), 0.3)); err != nil {
		t.Fatal(err)
	}
	res, err := c.Ingest(ctx, client.IngestOptions{
		Dataset: "flows", Instance: 1, Kind: "pps", Format: "ndjson",
		Salt: testSalt, SaltSet: true, Tau: taus[1],
	}, bytes.NewReader(ndjsonBody(sites[1])))
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != int64(len(sites[1])) {
		t.Fatalf("ingest consumed %d pairs, want %d", res.Pairs, len(sites[1]))
	}
	if _, err := c.Ingest(ctx, client.IngestOptions{
		Dataset: "flows", Instance: 2, Kind: "pps", Format: "csv",
		Salt: testSalt, SaltSet: true, Tau: taus[2],
	}, bytes.NewReader(csvBody(sites[2]))); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if _, err := c.Ingest(ctx, client.IngestOptions{
			Dataset: "actives", Instance: i, Kind: "set", Format: "ndjson",
			Salt: testSalt, SaltSet: true, P: 0.3,
		}, bytes.NewReader(ndjsonBody(sites[i]))); err != nil {
			t.Fatal(err)
		}
	}

	// In-process reference summaries (identical by construction).
	ppsLocal := []core.PPSReader{
		pps0,
		summ.SummarizePPS(1, sites[1], taus[1]),
		summ.SummarizePPS(2, sites[2], taus[2]),
	}
	setLocal := make([]core.SetReader, 3)
	for i, in := range sites {
		setLocal[i] = summ.SummarizeSet(i, members(in), 0.3)
	}

	srvD, err := c.Distinct(ctx, "actives")
	if err != nil {
		t.Fatal(err)
	}
	locD, err := core.DistinctCountMultiReaders(setLocal, nil)
	if err != nil {
		t.Fatal(err)
	}
	if srvD.HT != locD.HT || srvD.L != locD.L || srvD.KeysUsed != locD.KeysUsed {
		t.Errorf("distinct: server %+v != direct %+v", srvD, locD)
	}

	srvM, err := c.MaxDominance(ctx, "flows", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	locM, err := core.MaxDominanceReaders(ppsLocal[0], ppsLocal[2], nil)
	if err != nil {
		t.Fatal(err)
	}
	if srvM.HT != locM.HT || srvM.L != locM.L || srvM.KeysUsed != locM.KeysUsed {
		t.Errorf("maxdominance: server %+v != direct %+v", srvM, locM)
	}

	// A key sampled everywhere gives a determined (positive) median.
	var hot dataset.Key
	for _, h := range ppsLocal[0].AppendKeys(nil) {
		if _, ok := ppsLocal[1].Lookup(h); !ok {
			continue
		}
		if _, ok := ppsLocal[2].Lookup(h); ok {
			hot = h
			break
		}
	}
	srvQ, err := c.Quantile(ctx, "flows", uint64(hot), 2)
	if err != nil {
		t.Fatal(err)
	}
	locQ, err := core.QuantilePPSReaders(ppsLocal, hot, 2)
	if err != nil {
		t.Fatal(err)
	}
	if srvQ.HT != locQ.HT || srvQ.Sampled != locQ.Sampled {
		t.Errorf("quantile: server %+v != direct %+v", srvQ, locQ)
	}

	srvS, err := c.Sum(ctx, "flows", 1)
	if err != nil {
		t.Fatal(err)
	}
	if loc := ppsLocal[1].SubsetSum(nil); srvS.Sum != loc {
		t.Errorf("sum: server %v != direct %v", srvS.Sum, loc)
	}

	infos, err := c.Datasets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Dataset != "actives" || len(infos[0].Instances) != 3 {
		t.Errorf("unexpected dataset listing: %+v", infos)
	}
}

// TestServerFetchRoundTrip: a stored summary fetched back decodes and
// combines with locally built ones.
func TestServerFetchRoundTrip(t *testing.T) {
	sites := fixture(400)
	c, closeSrv := startServer(t, engine.Config{})
	defer closeSrv()
	ctx := context.Background()
	summ := core.NewSummarizer(testSalt)
	tau := sampling.TauForExpectedSize(sites[0], 80)
	if _, err := c.Ingest(ctx, client.IngestOptions{
		Dataset: "flows", Instance: 0, Kind: "pps", Format: "ndjson",
		Salt: testSalt, SaltSet: true, Tau: tau,
	}, bytes.NewReader(ndjsonBody(sites[0]))); err != nil {
		t.Fatal(err)
	}
	raw, err := c.FetchSummary(ctx, "flows", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.DecodeSummary(raw)
	if err != nil {
		t.Fatal(err)
	}
	want := summ.SummarizePPS(0, sites[0], tau)
	if !core.Combinable(got.(*core.PPSSummary), want) {
		t.Error("fetched summary not combinable with a local one")
	}
	if got.Size() != want.Size() {
		t.Errorf("fetched %d keys, want %d", got.Size(), want.Size())
	}
}

// TestServerErrors pins the status codes of the failure modes: unknown
// version (415), incompatibility (409), absence (404), bad requests (400).
func TestServerErrors(t *testing.T) {
	sites := fixture(200)
	c, closeSrv := startServer(t, engine.Config{})
	defer closeSrv()
	ctx := context.Background()
	summ := core.NewSummarizer(testSalt)
	if _, err := c.PostSummary(ctx, "flows", summ.SummarizePPS(0, sites[0], 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PostSummary(ctx, "actives", summ.SummarizeSet(0, members(sites[0]), 0.5)); err != nil {
		t.Fatal(err)
	}

	expect := func(name string, err error, fragment string) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: expected an error", name)
			return
		}
		if !strings.Contains(err.Error(), fragment) {
			t.Errorf("%s: error %q does not mention %q", name, err, fragment)
		}
	}

	// Future wire version → 415 with the version in the message, even
	// when the kind tag is one this build has never heard of.
	_, err := c.PostSummary(ctx, "flows", json.RawMessage(`{"version":9,"kind":"pps","tau":1}`))
	expect("unknown version", err, "HTTP 415")
	expect("unknown version", err, "version 9")
	_, err = c.PostSummary(ctx, "flows", json.RawMessage(`{"version":2,"kind":"zipf"}`))
	expect("future kind", err, "HTTP 415")

	// Wrong salt and wrong kind → 409.
	other := core.NewSummarizer(999)
	_, err = c.PostSummary(ctx, "flows", other.SummarizePPS(1, sites[1], 10))
	expect("salt mismatch", err, "HTTP 409")
	_, err = c.PostSummary(ctx, "flows", summ.SummarizeSet(1, members(sites[1]), 0.5))
	expect("kind mismatch", err, "HTTP 409")
	_, err = c.Ingest(ctx, client.IngestOptions{
		Dataset: "flows", Instance: 1, Kind: "pps",
		Salt: 999, SaltSet: true, Tau: 10,
	}, bytes.NewReader(nil))
	expect("ingest salt mismatch", err, "HTTP 409")
	// A kind mismatch against an existing dataset is a 409 too.
	_, err = c.Ingest(ctx, client.IngestOptions{
		Dataset: "flows", Instance: 1, Kind: "set", P: 0.5,
	}, bytes.NewReader(nil))
	expect("ingest kind mismatch", err, "HTTP 409")

	// Absences → 404.
	_, err = c.Distinct(ctx, "nope")
	expect("unknown dataset", err, "HTTP 404")
	_, err = c.Sum(ctx, "flows", 7)
	expect("unknown instance", err, "HTTP 404")

	// Bad requests → 400.
	_, err = c.MaxDominance(ctx, "flows", 0, 0)
	expect("duplicate instances", err, "HTTP 400")
	_, err = c.Quantile(ctx, "flows", 1, 5, 0)
	expect("bad quantile", err, "HTTP 400")
	_, err = c.Distinct(ctx, "flows")
	expect("distinct on pps", err, "HTTP 400")
	_, err = c.Ingest(ctx, client.IngestOptions{
		Dataset: "fresh", Instance: 0, Kind: "pps", Tau: 10,
	}, bytes.NewReader(nil))
	expect("missing salt", err, "HTTP 400")
	_, err = c.Ingest(ctx, client.IngestOptions{
		Dataset: "fresh", Instance: 0, Kind: "pps",
		Salt: 1, SaltSet: true, Tau: 10, Format: "csv",
	}, strings.NewReader("key,value\nnot-a-key,3\n"))
	expect("bad csv", err, "HTTP 400")
	_, err = c.Ingest(ctx, client.IngestOptions{
		Dataset: "fresh", Instance: 0, Kind: "pps",
		Salt: 1, SaltSet: true, Tau: 10, Format: "ndjson",
	}, strings.NewReader(`{"key":1,"value":-2}`+"\n"))
	expect("negative value", err, "HTTP 400")
	// A weighted stream repeating a key violates the one-value-per-key
	// model (and would corrupt bottom-k sampler state).
	_, err = c.Ingest(ctx, client.IngestOptions{
		Dataset: "fresh", Instance: 0, Kind: "bottomk", K: 3,
		Salt: 1, SaltSet: true, Format: "csv",
	}, strings.NewReader("1,5\n1,5\n2,7\n"))
	expect("duplicate key", err, "HTTP 400")
	expect("duplicate key", err, "repeated")
	// Set ingest deduplicates implicitly: repeated members are fine.
	if _, err := c.Ingest(ctx, client.IngestOptions{
		Dataset: "freshset", Instance: 0, Kind: "set", P: 0.9,
		Salt: 1, SaltSet: true, Format: "csv",
	}, strings.NewReader("1\n1\n2\n")); err != nil {
		t.Errorf("set ingest with repeated member: %v", err)
	}
}

// readCounter counts the bytes read through it.
type readCounter struct {
	r io.Reader
	n int
}

func (c *readCounter) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestIngestRefusesCoordinated: coordinated (shared-seed) input is refused
// with a 400 wherever it can enter — shared=true on both ingest endpoints,
// for a new and for an existing dataset, before the body is read; a v1
// summary with "shared": true; a v2 summary with flag bit 0 — and so is
// the varopt kind, which nothing serves: kind=varopt, a v1 "kind":"varopt"
// summary and a v2 kind tag 4 each get the existing unknown-kind message. A
// refusal registers nothing and feeds no pair to the engine. shared=false
// is accepted.
func TestIngestRefusesCoordinated(t *testing.T) {
	const (
		ingestRefusal = "server: shared=true: coordinated (shared-seed) summaries are not supported"
		v1Refusal     = "core: decoding v1 summary: coordinated (shared-seed) summaries are not supported"
		v2Refusal     = "core: decoding v2 summary: coordinated (shared-seed) summaries are not supported"
		kindRefusal   = `server: unknown ingest kind "varopt" (pps, bottomk, set)`
		v1KindRefusal = `core: unknown summary kind "varopt"`
		v2KindRefusal = "core: unknown v2 summary kind tag 4"
	)
	sites := fixture(200)
	reg := server.NewRegistry()
	h := server.New(reg, engine.Config{},
		server.WithObserver(server.NewObserver(obs.NewRegistry())))
	ts := httptest.NewServer(h)
	defer ts.Close()

	post := func(t *testing.T, target, ct string, body []byte) (status int, msg string, read int) {
		t.Helper()
		rc := &readCounter{r: bytes.NewReader(body)}
		req := httptest.NewRequest(http.MethodPost, target, rc)
		req.Header.Set("Content-Type", ct)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var res struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatalf("POST %s: %d %q: %v", target, rec.Code, rec.Body, err)
		}
		return rec.Code, res.Error, rc.n
	}
	// shared=false is what bench/summaryload sends: it is accepted.
	if status, msg, _ := post(t, "/v1/ingest?dataset=flows&instance=0&kind=pps&tau=10&salt=2011&format=ndjson&shared=false",
		"application/x-ndjson", ndjsonBody(sites[0])); status != http.StatusCreated {
		t.Fatalf("shared=false ingest: %d %q, want 201", status, msg)
	}
	listed := func() []api.DatasetInfo {
		t.Helper()
		infos, err := client.New(ts.URL, ts.Client()).Datasets(context.Background())
		if err != nil {
			t.Fatalf("listing datasets: %v", err)
		}
		return infos
	}
	before := listed()
	values, _ := scrapeMetrics(t, ts)
	pairs := values["summaryd_engine_pairs_total"]

	summ := core.NewSummarizer(testSalt)
	v1, err := core.EncodeSummary(summ.SummarizePPS(1, sites[1], 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	v1Varopt := bytes.Replace(v1, []byte(`"kind":"pps"`), []byte(`"kind":"varopt"`), 1)
	v1 = bytes.Replace(v1, []byte(`"shared":false`), []byte(`"shared":true`), 1)
	v2, err := core.EncodeSummary(summ.SummarizePPS(1, sites[1], 10), 2)
	if err != nil {
		t.Fatal(err)
	}
	v2Tag4 := bytes.Clone(v2)
	v2Tag4[3] = 0x04
	v2[4] = 0x01

	// One subtest per dataset and entry point, so each refusal site is
	// reported on its own.
	for _, ds := range []string{"flows", "fresh"} {
		t.Run(ds, func(t *testing.T) {
			for _, tc := range []struct {
				name, target, ct string
				body             []byte
				want             string
				readsBody        bool
			}{
				{"ingest", "/v1/ingest?dataset=" + ds + "&instance=1&kind=pps&tau=10&salt=2011&shared=true&format=ndjson",
					"application/x-ndjson", ndjsonBody(sites[1]), ingestRefusal, false},
				{"ingest without salt", "/v1/ingest?dataset=" + ds + "&instance=1&kind=pps&tau=10&shared=true&format=ndjson",
					"application/x-ndjson", ndjsonBody(sites[1]), ingestRefusal, false},
				{"ingest/multi", "/v1/ingest/multi?dataset=" + ds + "&instances=1,2&kind=pps&tau=10&salt=2011&shared=true&format=csv",
					"text/csv", multiCSVBody(sites[1:], []int{1, 2}), ingestRefusal, false},
				{"v1 summary", "/v1/summaries?dataset=" + ds, "application/json", v1, v1Refusal, true},
				{"v1 summary, sniffed", "/v1/summaries?dataset=" + ds, "application/octet-stream", v1, v1Refusal, true},
				{"v2 summary", "/v1/summaries?dataset=" + ds, "application/x-summary-v2", v2, v2Refusal, true},
				{"v2 summary, sniffed", "/v1/summaries?dataset=" + ds, "application/octet-stream", v2, v2Refusal, true},
				{"ingest kind=varopt", "/v1/ingest?dataset=" + ds + "&instance=1&kind=varopt&k=64&salt=2011&format=ndjson",
					"application/x-ndjson", ndjsonBody(sites[1]), kindRefusal, false},
				{"v1 varopt summary", "/v1/summaries?dataset=" + ds, "application/json", v1Varopt, v1KindRefusal, true},
				{"v2 kind tag 4", "/v1/summaries?dataset=" + ds, "application/x-summary-v2", v2Tag4, v2KindRefusal, true},
			} {
				t.Run(tc.name, func(t *testing.T) {
					status, msg, read := post(t, tc.target, tc.ct, tc.body)
					if status != http.StatusBadRequest || msg != tc.want {
						t.Errorf("%d %q, want 400 %q", status, msg, tc.want)
					}
					if !tc.readsBody && read != 0 {
						t.Errorf("%d body bytes read before the refusal", read)
					}
				})
			}
		})
	}
	if after := listed(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("refusals changed the registry: %+v, want %+v", after, before)
	}
	// Nor does a listing carry a "shared" key: there is no setting to show.
	resp, err := ts.Client().Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	listing, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || bytes.Contains(listing, []byte(`"shared"`)) {
		t.Errorf("GET /v1/datasets: %s (%v), want no \"shared\" key", listing, err)
	}
	values, _ = scrapeMetrics(t, ts)
	if got := values["summaryd_engine_pairs_total"]; got != pairs {
		t.Errorf("summaryd_engine_pairs_total %v after the refusals, want %v", got, pairs)
	}
}
