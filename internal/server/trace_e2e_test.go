package server_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/internal/store"
	"repro/pkg/api"
	"repro/pkg/client"
)

// tracedServer builds an observed, traced, store-backed server: the full
// stack a `summaryd -trace -data-dir` process runs.
func tracedServer(t *testing.T, tr *trace.Tracer) *httptest.Server {
	t.Helper()
	reg := server.NewRegistry()
	st, err := store.Open(t.TempDir(), store.Options{Tracer: tr}, reg.Put)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	reg.SetPersister(st)
	ts := httptest.NewServer(server.New(reg, engine.Config{},
		server.WithObserver(server.NewObserver(obs.NewRegistry())),
		server.WithTracer(tr)))
	t.Cleanup(ts.Close)
	return ts
}

// spanID extracts the span-id field of a span's traceparent rendering.
func spanID(s *trace.Span) string {
	return strings.Split(s.Context().Traceparent(), "-")[2]
}

// findRecord returns the ring record for a trace ID, or nil.
func findRecord(recs []trace.Record, traceID string) *trace.Record {
	for i := range recs {
		if recs[i].TraceID == traceID {
			return &recs[i]
		}
	}
	return nil
}

// findServerRecord returns the server-side record of a trace — the one
// that continued a remote parent. The client's own root span publishes a
// sibling record under the same trace ID when client and server share a
// process (and therefore a tracer), as these tests do.
func findServerRecord(recs []trace.Record, traceID string) *trace.Record {
	for i := range recs {
		if recs[i].TraceID == traceID && recs[i].RemoteParent {
			return &recs[i]
		}
	}
	return nil
}

// TestTraceEndToEnd drives one posted summary and one raw ingest from a
// client whose context carries a root span, and asserts the server-side
// records show the full parentage: the request span continues the
// client's trace (remote parent = the client's span), and the store /
// engine layers hang off the request span.
func TestTraceEndToEnd(t *testing.T) {
	tr := trace.New(8)
	ts := tracedServer(t, tr)
	c := client.New(ts.URL, ts.Client())
	sites := fixture(800)
	summ := core.NewSummarizer(testSalt)

	// Act 1: a posted summary. Client root → server request → WAL append.
	root := tr.StartSpan("test.post", trace.SpanContext{})
	ctx := trace.ContextWithSpan(context.Background(), root)
	tau := sampling.TauForExpectedSize(sites[0], 100)
	if _, err := c.PostSummary(ctx, "flows", summ.SummarizePPS(0, sites[0], tau)); err != nil {
		t.Fatal(err)
	}
	root.Finish()

	rec := findServerRecord(tr.Traces(), root.TraceID())
	if rec == nil {
		t.Fatalf("no server record joined trace %s", root.TraceID())
	}
	reqSpan := rec.Spans[0]
	if reqSpan.Name != "POST /v1/summaries" {
		t.Errorf("root span name %q, want POST /v1/summaries", reqSpan.Name)
	}
	if reqSpan.ParentID != spanID(root) {
		t.Errorf("request span parent %q, want the client span %q", reqSpan.ParentID, spanID(root))
	}
	var sawAppend bool
	for _, sp := range rec.Spans {
		if sp.Name != "store.append" {
			continue
		}
		sawAppend = true
		if sp.ParentID != reqSpan.SpanID {
			t.Errorf("store.append parent %q, want the request span %q", sp.ParentID, reqSpan.SpanID)
		}
	}
	if !sawAppend {
		t.Errorf("no store.append span in %+v", rec.Spans)
	}

	// Act 2: a raw ingest records the engine stages under the request.
	root2 := tr.StartSpan("test.ingest", trace.SpanContext{})
	ctx2 := trace.ContextWithSpan(context.Background(), root2)
	var body bytes.Buffer
	for _, k := range sites[1].Keys() {
		fmt.Fprintf(&body, "%d,%g\n", uint64(k), sites[1][k])
	}
	_, err := c.Ingest(ctx2, client.IngestOptions{
		Dataset: "flows", Instance: 1, Kind: "pps", Format: "csv",
		Salt: testSalt, SaltSet: true, Tau: tau,
	}, strings.NewReader("key,value\n"+body.String()))
	if err != nil {
		t.Fatal(err)
	}
	root2.Finish()

	rec2 := findServerRecord(tr.Traces(), root2.TraceID())
	if rec2 == nil {
		t.Fatalf("no server record joined ingest trace %s", root2.TraceID())
	}
	want := map[string]bool{"ingest.scan": false, "engine.drain": false, "registry.put": false, "store.append": false}
	for _, sp := range rec2.Spans {
		if _, ok := want[sp.Name]; ok {
			want[sp.Name] = true
		}
		if sp.Name == "ingest.scan" {
			// The scan says how many values it parsed: a PPS sample of about
			// 100 of 800 keys rejects most pairs from their seed alone.
			attrs := map[string]string{}
			for _, a := range sp.Attrs {
				attrs[a.Key] = a.Value
			}
			pairs, errP := strconv.Atoi(attrs["pairs"])
			parsed, errV := strconv.Atoi(attrs["values_parsed"])
			if errP != nil || errV != nil || pairs != len(sites[1]) || parsed <= 0 || parsed >= pairs/2 {
				t.Errorf("ingest.scan attrs %+v: want pairs %d and values_parsed in (0, pairs/2)", sp.Attrs, len(sites[1]))
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("ingest trace missing a %s span: %+v", name, rec2.Spans)
		}
	}

	// The ring is served on /debug/traces; both traces come back as JSON.
	recs := getJSON[[]trace.Record](t, ts.URL+"/debug/traces")
	if findServerRecord(recs, root.TraceID()) == nil || findServerRecord(recs, root2.TraceID()) == nil {
		t.Errorf("/debug/traces serves %d records but not both test traces", len(recs))
	}
}

// TestTraceResponseHeader: a traced server emits a traceparent response
// header carrying the request's trace ID — fresh when the caller sent
// none, continuing the caller's when it did.
func TestTraceResponseHeader(t *testing.T) {
	tr := trace.New(4)
	ts := tracedServer(t, tr)

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	fresh := resp.Header.Get("traceparent")
	if _, ok := trace.ParseTraceparent(fresh); !ok {
		t.Fatalf("fresh traceparent response header %q does not parse", fresh)
	}

	const inbound = "00-11111111111111111111111111111111-2222222222222222-01"
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("traceparent", inbound)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := resp.Header.Get("traceparent")
	if !strings.HasPrefix(got, "00-11111111111111111111111111111111-") {
		t.Errorf("traceparent response %q does not continue the inbound trace", got)
	}
	if strings.Contains(got, "2222222222222222") {
		t.Errorf("traceparent response %q reuses the caller's span ID", got)
	}
	rec := findRecord(tr.Traces(), "11111111111111111111111111111111")
	if rec == nil {
		t.Fatal("inbound trace ID not recorded")
	}
	if !rec.RemoteParent || rec.Spans[0].ParentID != "2222222222222222" {
		t.Errorf("record did not adopt the remote parent: %+v", rec.Spans[0])
	}
}

// TestTraceRingEviction: the ring keeps the newest N completed traces,
// newest first, evicting strictly in completion order.
func TestTraceRingEviction(t *testing.T) {
	tr := trace.New(2)
	ts := tracedServer(t, tr)

	ids := make([]string, 3)
	for i := range ids {
		ids[i] = fmt.Sprintf("%032d", i+1)
		req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
		req.Header.Set("traceparent", "00-"+ids[i]+"-aaaaaaaaaaaaaaaa-01")
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	recs := getJSON[[]trace.Record](t, ts.URL+"/debug/traces")
	// The /debug/traces request itself may have displaced a slot by the
	// time it is answered; the ring held [2,3] when request 3 completed,
	// so trace 1 must be gone and order must be newest-first.
	if len(recs) != 2 {
		t.Fatalf("ring of 2 serves %d records", len(recs))
	}
	if findRecord(recs, ids[0]) != nil {
		t.Error("oldest trace survived a full ring")
	}
	if recs[0].TraceID != ids[2] || recs[1].TraceID != ids[1] {
		t.Errorf("ring order [%s %s], want newest-first [%s %s]",
			recs[0].TraceID, recs[1].TraceID, ids[2], ids[1])
	}
}

// TestWithTracerRequiresObserver pins the construction contract: the
// tracer records through the observer's middleware, so it cannot stand
// alone.
func TestWithTracerRequiresObserver(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithTracer without WithObserver did not panic")
		}
	}()
	server.New(server.NewRegistry(), engine.Config{}, server.WithTracer(trace.New(0)))
}

// TestQueryExplainAndAccuracy: explain=1 attaches the consulted-summary
// report, an estimate that admits an error bound carries stderr and
// ci95 = 1.96·stderr with or without it, and a thresholded bottom-k
// distinct count, for which no bound is known, carries none.
func TestQueryExplainAndAccuracy(t *testing.T) {
	ts := httptest.NewServer(server.New(server.NewRegistry(), engine.Config{}))
	defer ts.Close()
	sites := fixture(1200)
	summ := core.NewSummarizer(testSalt)

	bk := summ.SummarizeBottomK(0, sites[0], 100, sampling.PPS{})
	postV2(t, ts.URL, "ranked", bk)

	res := getJSON[api.DistinctResult](t, ts.URL+"/v1/query?dataset=ranked&q=distinct&instances=0&explain=1")
	if res.Explain == nil {
		t.Fatal("explain=1 returned no explain block")
	}
	if len(res.Explain.Summaries) != 1 {
		t.Fatalf("explain reports %d summaries, want 1", len(res.Explain.Summaries))
	}
	es := res.Explain.Summaries[0]
	if es.Kind != "bottomk" || es.Entries != bk.Size() || es.Bytes != core.WireSize(bk) {
		t.Errorf("explain summary %+v, want a %d-entry bottomk of %d bytes", es, bk.Size(), core.WireSize(bk))
	}
	if res.Explain.EntriesScanned != bk.Size() {
		t.Errorf("entries_scanned = %d, want %d", res.Explain.EntriesScanned, bk.Size())
	}
	if res.Accuracy != nil {
		t.Errorf("thresholded bottom-k distinct carries accuracy %+v; no bound is known", res.Accuracy)
	}

	// Without explain=1 the report is omitted.
	bare := getJSON[api.DistinctResult](t, ts.URL+"/v1/query?dataset=ranked&q=distinct&instances=0")
	if bare.Explain != nil {
		t.Error("explain block present without explain=1")
	}

	// PPS subset sum: stderr from the Horvitz–Thompson variance estimator.
	tau := sampling.TauForExpectedSize(sites[1], 150)
	postV2(t, ts.URL, "flows", summ.SummarizePPS(1, sites[1], tau))
	sum := getJSON[api.SumResult](t, ts.URL+"/v1/query?dataset=flows&q=sum&instances=1&explain=1")
	if sum.Accuracy == nil || sum.Accuracy.StdErr <= 0 {
		t.Fatalf("thresholded pps sum accuracy = %+v, want stderr > 0", sum.Accuracy)
	}
	if got, want := sum.Accuracy.CI95, core.CI95Z*sum.Accuracy.StdErr; math.Abs(got-want) > 1e-12*want {
		t.Errorf("ci95 = %v, want 1.96*stderr = %v", got, want)
	}
	if sum.Explain == nil || len(sum.Explain.Summaries) != 1 {
		t.Errorf("sum explain = %+v, want 1 summary", sum.Explain)
	}
	// Without explain=1 accuracy still answers.
	if bare := getJSON[api.SumResult](t, ts.URL+"/v1/query?dataset=flows&q=sum&instances=1"); bare.Accuracy == nil {
		t.Error("accuracy block missing without explain=1")
	}
}

// TestQuerySpanMergeAttrs: the query span of a key-walking query carries
// union_keys (the keys its ordered walk visited), so /debug/traces
// attributes ns/key; a point query does not.
func TestQuerySpanMergeAttrs(t *testing.T) {
	tr := trace.New(8)
	ts := tracedServer(t, tr)
	sites := fixture(800)
	summ := core.NewSummarizer(testSalt)
	c := client.New(ts.URL, ts.Client()) // posts v1 JSON
	tau := sampling.TauForExpectedSize(sites[0], 100)
	if _, err := c.PostSummary(context.Background(), "flows", summ.SummarizePPS(0, sites[0], tau)); err != nil {
		t.Fatal(err)
	}
	postV2(t, ts.URL, "flows", summ.SummarizePPS(1, sites[1], tau))

	querySpan := func(url, name string) map[string]string {
		t.Helper()
		before := len(tr.Traces())
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		recs := tr.Traces()
		if len(recs) != before+1 {
			t.Fatalf("GET %s recorded %d traces, want 1", url, len(recs)-before)
		}
		for _, sp := range recs[0].Spans {
			if sp.Name == name {
				attrs := map[string]string{}
				for _, a := range sp.Attrs {
					attrs[a.Key] = a.Value
				}
				return attrs
			}
		}
		t.Fatalf("GET %s recorded no %s span: %+v", url, name, recs[0].Spans)
		return nil
	}

	est, err := c.MaxDominance(context.Background(), "flows", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	attrs := querySpan("/v1/query?dataset=flows&q=maxdominance&instances=0,1", "query.maxdominance")
	if attrs["union_keys"] != strconv.Itoa(est.KeysUsed) {
		t.Errorf("maxdominance span attrs %v, want union_keys=%d", attrs, est.KeysUsed)
	}
	if _, ok := attrs["columns_sorted"]; ok {
		t.Errorf("maxdominance span attrs %v: no summary sorts its keys for a query", attrs)
	}
	attrs = querySpan("/v1/query?dataset=flows&q=sum&instances=1", "query.sum")
	if attrs["union_keys"] == "" {
		t.Errorf("sum span attrs %v, want union_keys set", attrs)
	}
	attrs = querySpan("/v1/query?dataset=flows&q=quantile&instances=0,1&key=1", "query.quantile")
	if _, ok := attrs["union_keys"]; ok {
		t.Errorf("quantile span attrs %v: a point query walks no columns", attrs)
	}
}
