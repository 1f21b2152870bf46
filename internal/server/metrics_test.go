package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/pkg/client"
)

// syncBuffer is a goroutine-safe log sink: slog handlers serialize their
// own formatting but not the underlying writer.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// scrapeMetrics fetches /metrics and parses the exposition into series
// values (keyed by "name{labels}") and declared TYPEs (keyed by family
// name).
func scrapeMetrics(t *testing.T, ts *httptest.Server) (values map[string]float64, types map[string]string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /metrics: %v", err)
	}
	values = make(map[string]float64)
	types = make(map[string]string)
	for _, line := range strings.Split(string(body), "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[f[2]] = f[3]
		case strings.HasPrefix(line, "#"):
		default:
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				t.Fatalf("malformed sample line %q", line)
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("unparsable value in %q: %v", line, err)
			}
			if _, dup := values[line[:i]]; dup {
				t.Fatalf("duplicate series %q in exposition", line[:i])
			}
			values[line[:i]] = v
		}
	}
	return values, types
}

// TestMetricsEndToEnd drives concurrent ingest and query traffic against
// an instrumented server and checks the /metrics exposition: documented
// families present under their documented types, per-endpoint counters
// consistent with the traffic, counters monotone between two scrapes, the
// set of series fixed from boot on whatever is posted, ingested or
// queried, and every request's X-Request-ID echoed both in the response
// header and in the structured request log.
func TestMetricsEndToEnd(t *testing.T) {
	sites := fixture(3000)
	var logBuf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	o := server.NewObserver(obs.NewRegistry(), server.WithRequestLogger(logger))
	ts := httptest.NewServer(server.New(server.NewRegistry(), engine.Config{},
		server.WithObserver(o)))
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()
	boot, _ := scrapeMetrics(t, ts)

	summ := core.NewSummarizer(testSalt)
	for i := 0; i < 2; i++ {
		tau := sampling.TauForExpectedSize(sites[i], 500)
		if _, err := c.PostSummary(ctx, "flows", summ.SummarizePPS(i, sites[i], tau)); err != nil {
			t.Fatal(err)
		}
	}

	// One wave of concurrent traffic: three ingest writers (distinct
	// instances) racing three query readers, under -race in CI.
	wave := func(base int) {
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				site := sites[i%len(sites)]
				tau := sampling.TauForExpectedSize(site, 500)
				if _, err := c.Ingest(ctx, client.IngestOptions{
					Dataset: "flows", Instance: base + i, Kind: "pps", Format: "ndjson",
					Salt: testSalt, SaltSet: true, Tau: tau,
				}, bytes.NewReader(ndjsonBody(site))); err != nil {
					t.Error(err)
				}
			}(i)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 5; j++ {
					if _, err := c.MaxDominance(ctx, "flows", 0, 1); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		wg.Wait()
	}

	wave(10)
	first, types := scrapeMetrics(t, ts)
	wave(20)
	second, _ := scrapeMetrics(t, ts)

	// Documented families carry their documented types.
	wantTypes := map[string]string{
		"summaryd_http_requests_total":           "counter",
		"summaryd_http_request_duration_seconds": "histogram",
		"summaryd_http_requests_in_flight":       "gauge",
		"summaryd_http_request_bytes_total":      "counter",
		"summaryd_http_response_bytes_total":     "counter",
		"summaryd_engine_pairs_total":            "counter",
		"summaryd_engine_ingests_total":          "counter",
		"summaryd_datasets":                      "gauge",
	}
	for name, typ := range wantTypes {
		if got := types[name]; got != typ {
			t.Errorf("family %s: TYPE %q, want %q", name, got, typ)
		}
	}
	// The engine exposes only what an ingest moves: pairs and ingests.
	var engineFamilies []string
	for name := range types {
		if strings.HasPrefix(name, "summaryd_engine_") {
			engineFamilies = append(engineFamilies, name)
		}
	}
	slices.Sort(engineFamilies)
	if want := []string{"summaryd_engine_ingests_total", "summaryd_engine_pairs_total"}; !slices.Equal(engineFamilies, want) {
		t.Errorf("engine families %v, want exactly %v", engineFamilies, want)
	}

	// The traffic is visible where it should be. Three ingests per wave:
	// after the first wave the 2xx ingest counter reads exactly 3.
	if got := first[`summaryd_http_requests_total{code="2xx",endpoint="/v1/ingest"}`]; got != 3 {
		t.Errorf("first scrape: ingest 2xx = %v, want 3", got)
	}
	if got := first[`summaryd_http_requests_total{code="2xx",endpoint="/v1/query"}`]; got < 15 {
		t.Errorf("first scrape: query 2xx = %v, want >= 15", got)
	}
	// Engine pairs: every wave ingests three full sites' pair streams,
	// plus nothing else touches the pipeline.
	var wavePairs float64
	for i := 0; i < 3; i++ {
		wavePairs += float64(len(sites[i%len(sites)]))
	}
	if got := first["summaryd_engine_pairs_total"]; got != wavePairs {
		t.Errorf("first scrape: engine pairs = %v, want %v", got, wavePairs)
	}
	if got := second["summaryd_engine_pairs_total"]; got != 2*wavePairs {
		t.Errorf("second scrape: engine pairs = %v, want %v", got, 2*wavePairs)
	}
	if got := first["summaryd_engine_ingests_total"]; got != 3 {
		t.Errorf("first scrape: engine ingests = %v, want 3", got)
	}
	if got := first["summaryd_datasets"]; got != 1 {
		t.Errorf("datasets gauge = %v, want 1", got)
	}
	// The scrape request itself is in flight while the registry renders.
	if got := first["summaryd_http_requests_in_flight"]; got < 1 {
		t.Errorf("in-flight gauge = %v, want >= 1 (the scrape itself)", got)
	}
	// Histogram internals: the query endpoint's +Inf bucket equals its
	// _count, and the per-class counter total matches.
	qInf := first[`summaryd_http_request_duration_seconds_bucket{endpoint="/v1/query",le="+Inf"}`]
	qCount := first[`summaryd_http_request_duration_seconds_count{endpoint="/v1/query"}`]
	if qInf == 0 || qInf != qCount {
		t.Errorf("query duration histogram: +Inf bucket %v vs _count %v", qInf, qCount)
	}
	// Request/response byte counters moved on the ingest path.
	if got := first[`summaryd_http_request_bytes_total{endpoint="/v1/ingest"}`]; got == 0 {
		t.Error("ingest request bytes counter is zero after three body uploads")
	}

	// Monotonicity: no counter may move backwards between scrapes.
	for key, v1 := range first {
		base := key
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		base = strings.TrimSuffix(strings.TrimSuffix(base, "_bucket"), "_count")
		typ := types[base]
		if typ != "counter" && typ != "histogram" {
			continue
		}
		if v2, ok := second[key]; !ok || v2 < v1 {
			t.Errorf("series %s went from %v to %v (monotone counter moved backwards)", key, v1, v2)
		}
	}

	// Summaries of every kind in 36 more datasets, raw ingests of every
	// kind and queries over them: values move, the series set does not.
	for d := 0; d < 12; d++ {
		site := sites[d%len(sites)]
		tau := sampling.TauForExpectedSize(site, 100)
		for ds, sum := range map[string]core.Summary{
			"pps-" + strconv.Itoa(d):     summ.SummarizePPS(0, site, tau),
			"bottomk-" + strconv.Itoa(d): summ.SummarizeBottomK(0, site, 100, sampling.PPS{}),
			"set-" + strconv.Itoa(d):     summ.SummarizeSet(0, members(site), 0.3),
		} {
			if _, err := c.PostSummary(ctx, ds, sum); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, opts := range []client.IngestOptions{
		{Dataset: "pps-0", Kind: "pps", Tau: sampling.TauForExpectedSize(sites[1], 100)},
		{Dataset: "bottomk-0", Kind: "bottomk", K: 100},
		{Dataset: "set-0", Kind: "set", P: 0.3},
	} {
		opts.Instance, opts.Format = 1, "ndjson"
		if _, err := c.Ingest(ctx, opts, bytes.NewReader(ndjsonBody(sites[1]))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Distinct(ctx, "set-0", 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Distinct(ctx, "bottomk-0", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sum(ctx, "pps-0", 1); err != nil {
		t.Fatal(err)
	}
	third, _ := scrapeMetrics(t, ts)
	if got := third["summaryd_datasets"]; got != 37 {
		t.Errorf("datasets gauge = %v, want 37", got)
	}
	for name, scrape := range map[string]map[string]float64{"first": first, "second": second, "third": third} {
		for key := range scrape {
			if _, ok := boot[key]; !ok {
				t.Errorf("%s scrape: series %s was not there at boot", name, key)
			}
		}
		for key := range boot {
			if _, ok := scrape[key]; !ok {
				t.Errorf("%s scrape: boot series %s is gone", name, key)
			}
		}
	}

	// No store is attached: its families must be absent, not zero.
	for name := range types {
		if strings.HasPrefix(name, "summaryd_store_") {
			t.Errorf("store family %s exposed by a store-less server", name)
		}
	}

	// Request-ID loop: the response header's ID appears in the structured
	// log line for that request.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rid := resp.Header.Get("X-Request-ID")
	if rid == "" {
		t.Fatal("no X-Request-ID on /healthz response")
	}
	// The log line lands after the response is flushed; give it a moment.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if logged := findRequestLine(t, logBuf.String(), rid); logged != nil {
			if logged["path"] != "/healthz" || logged["status"] != float64(http.StatusOK) {
				t.Errorf("request line for %s = %v, want path=/healthz status=200", rid, logged)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no request log line carrying request_id %q", rid)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A sane inbound ID is honored end to end; a garbage one is replaced.
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "edge-proxy-7")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "edge-proxy-7" {
		t.Errorf("inbound request ID not honored: got %q", got)
	}
	req, _ = http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "bad id with\tcontrol")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got == "" || strings.Contains(got, " ") {
		t.Errorf("garbage inbound request ID not replaced: got %q", got)
	}
}

// findRequestLine scans JSON log output for the "request" line carrying
// the given request_id.
func findRequestLine(t *testing.T, logs, rid string) map[string]any {
	t.Helper()
	for _, line := range strings.Split(logs, "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparsable log line %q: %v", line, err)
		}
		if rec["msg"] == "request" && rec["request_id"] == rid {
			return rec
		}
	}
	return nil
}

// TestSlowRequestTripwire pins the slow-request log escalation: at or
// above the WithSlowRequest threshold the request line is a Warn with
// slow=true, carrying on a traced server the trace_id that finds the
// request on /debug/traces; a zero threshold never escalates.
func TestSlowRequestTripwire(t *testing.T) {
	for _, tc := range []struct {
		threshold time.Duration
		level     string
		slow      bool
	}{
		{time.Nanosecond, "WARN", true},
		{0, "INFO", false},
	} {
		t.Run(tc.threshold.String(), func(t *testing.T) {
			var logBuf syncBuffer
			o := server.NewObserver(obs.NewRegistry(),
				server.WithRequestLogger(slog.New(slog.NewJSONHandler(&logBuf, nil))),
				server.WithSlowRequest(tc.threshold))
			srv := server.New(server.NewRegistry(), engine.Config{},
				server.WithObserver(o), server.WithTracer(trace.New(8)))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
			line := findRequestLine(t, logBuf.String(), rec.Header().Get("X-Request-ID"))
			if line == nil {
				t.Fatalf("no request line for the response's X-Request-ID in:\n%s", logBuf.String())
			}
			if line["level"] != tc.level || line["slow"] != tc.slow {
				t.Errorf("request line level=%v slow=%v, want %s slow=%v", line["level"], line["slow"], tc.level, tc.slow)
			}
			// traceparent is version-traceid-spanid-flags.
			tp := strings.Split(rec.Header().Get("traceparent"), "-")
			if len(tp) != 4 || line["trace_id"] != tp[1] {
				t.Errorf("request line trace_id %v, want the traceparent's %v", line["trace_id"], tp)
			}
		})
	}
}

// TestUnobservedServer pins the zero-cost default: without WithObserver
// there is no /metrics endpoint and no X-Request-ID header.
func TestUnobservedServer(t *testing.T) {
	ts := httptest.NewServer(server.New(server.NewRegistry(), engine.Config{}))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /metrics on unobserved server: status %d, want 404", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "" {
		t.Errorf("unobserved server set X-Request-ID %q", got)
	}
}

// discardRW is the cheapest possible ResponseWriter, so the allocation
// test below measures the handler, not the recorder.
type discardRW struct{ h http.Header }

func (d *discardRW) Header() http.Header         { return d.h }
func (d *discardRW) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardRW) WriteHeader(int)             {}

// healthzAllocBound is the pinned allocation budget of one /healthz probe
// on an uninstrumented server. The handler reuses the wire-version slice
// cached at construction and allocates only the response assembly and its
// JSON encoding; measured 10 allocs/op (Go 1.24, with the two-counter
// engine block), pinned with headroom so a regression back to per-probe
// rebuilding (or an encoder pessimization) fails loudly without flaking on
// Go-version noise.
const healthzAllocBound = 15

// TestHealthzAllocs pins the per-probe allocation count of the health
// endpoint — load balancers hit it continuously, so it must not rebuild
// static state per probe.
func TestHealthzAllocs(t *testing.T) {
	s := server.New(server.NewRegistry(), engine.Config{})
	req := httptest.NewRequest("GET", "/healthz", nil)
	rw := &discardRW{h: make(http.Header)}
	avg := testing.AllocsPerRun(200, func() { s.ServeHTTP(rw, req) })
	if avg > healthzAllocBound {
		t.Errorf("/healthz allocates %.1f per probe, budget %d", avg, healthzAllocBound)
	}
}

// BenchmarkHealthz reports the probe path's time and allocations — the
// companion number to TestHealthzAllocs's hard bound.
func BenchmarkHealthz(b *testing.B) {
	s := server.New(server.NewRegistry(), engine.Config{})
	req := httptest.NewRequest("GET", "/healthz", nil)
	rw := &discardRW{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ServeHTTP(rw, req)
	}
}

// BenchmarkServerQueryInstrumented measures the same HTTP round trip as
// BenchmarkServerQuery through a fully instrumented server (observer +
// metrics + request logger at warn, so per-request Info lines are
// level-skipped as in a quiet production setup), and reports the ratio
// against an uninstrumented server measured in the same process —
// overhead-ratio lands in BENCH_server.json for the CI artifact.
func BenchmarkServerQueryInstrumented(b *testing.B) {
	sites := fixture(10000)
	summ := core.NewSummarizer(testSalt)
	ctx := context.Background()
	setup := func(opts ...server.Option) (*client.Client, func()) {
		ts := httptest.NewServer(server.New(server.NewRegistry(), engine.Config{}, opts...))
		c := client.New(ts.URL, ts.Client())
		for i := 0; i < 2; i++ {
			tau := sampling.TauForExpectedSize(sites[i], 1000)
			if _, err := c.PostSummary(ctx, "flows", summ.SummarizePPS(i, sites[i], tau)); err != nil {
				b.Fatal(err)
			}
		}
		return c, ts.Close
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn}))
	o := server.NewObserver(obs.NewRegistry(),
		server.WithRequestLogger(logger), server.WithSlowRequest(time.Minute))
	inst, closeInst := setup(server.WithObserver(o))
	defer closeInst()
	base, closeBase := setup()
	defer closeBase()

	run := func(c *client.Client, n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := c.MaxDominance(ctx, "flows", 0, 1); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}
	run(inst, 5) // warm both paths before timing
	run(base, 5)

	b.ResetTimer()
	instDur := run(inst, b.N)
	b.StopTimer()
	baseDur := run(base, b.N)
	if baseDur > 0 {
		b.ReportMetric(float64(instDur)/float64(baseDur), "overhead-ratio")
	}
}

// BenchmarkServerQueryTraced measures the DISABLED tracer's cost on the
// query path: the same observed server once with a constructed-but-off
// tracer and once without one, in the same process. The middleware's
// fast path is one atomic load and every span method no-ops on nil, so
// overhead-ratio must hold ≈1 (CI gates the absolute ns/op and the
// allocation count against the committed baseline — disabled tracing
// adds zero allocations, so any increase is a regression).
func BenchmarkServerQueryTraced(b *testing.B) {
	sites := fixture(10000)
	summ := core.NewSummarizer(testSalt)
	ctx := context.Background()
	setup := func(opts ...server.Option) (*client.Client, func()) {
		base := []server.Option{server.WithObserver(server.NewObserver(obs.NewRegistry()))}
		ts := httptest.NewServer(server.New(server.NewRegistry(), engine.Config{}, append(base, opts...)...))
		c := client.New(ts.URL, ts.Client())
		for i := 0; i < 2; i++ {
			tau := sampling.TauForExpectedSize(sites[i], 1000)
			if _, err := c.PostSummary(ctx, "flows", summ.SummarizePPS(i, sites[i], tau)); err != nil {
				b.Fatal(err)
			}
		}
		return c, ts.Close
	}
	tr := trace.New(0)
	tr.SetEnabled(false)
	traced, closeTraced := setup(server.WithTracer(tr))
	defer closeTraced()
	bare, closeBare := setup()
	defer closeBare()

	run := func(c *client.Client, n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := c.MaxDominance(ctx, "flows", 0, 1); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}
	run(traced, 5) // warm both paths before timing
	run(bare, 5)

	b.ReportAllocs()
	b.ResetTimer()
	tracedDur := run(traced, b.N)
	b.StopTimer()
	bareDur := run(bare, b.N)
	if bareDur > 0 {
		b.ReportMetric(float64(tracedDur)/float64(bareDur), "overhead-ratio")
	}
	if len(tr.Traces()) != 0 {
		b.Fatal("disabled tracer recorded a trace")
	}
}
