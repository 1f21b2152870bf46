package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
)

// TestOversizedBodyIs413: a body over the endpoint's cap is refused as
// too large — 413, where it used to be a generic 400 — with the message
// it always had, on each endpoint that reads a capped body; a body of
// exactly the cap is not. What the requests carry is valid, so size is
// all that is wrong with them.
func TestOversizedBodyIs413(t *testing.T) {
	srv := New(NewRegistry(), engine.Config{})
	if srv.ingestBodyCap != maxIngestBody || srv.summaryBodyCap != maxSummaryBody {
		t.Fatalf("caps %d and %d, want maxIngestBody and maxSummaryBody", srv.ingestBodyCap, srv.summaryBodyCap)
	}
	summary, err := core.EncodeSummary(core.NewSummarizer(1).SummarizePPS(0, dataset.Instance{1: 2, 3: 4}, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, target, contentType string
		body                      []byte
		cap                       *int64
		message                   string
	}{
		{"ingest", "/v1/ingest?dataset=d1&instance=0&kind=pps&tau=5&salt=1&format=csv", "text/csv",
			[]byte("1,2\n3,4\n5,6\n\n\n"), &srv.ingestBodyCap, "server: reading pair stream: http: request body too large"},
		{"ingest multi", "/v1/ingest/multi?dataset=d2&instances=0,1&kind=pps&tau=5&salt=1", "application/x-ndjson",
			[]byte(`{"key":1,"instance":0,"value":2}` + "\n" + `{"key":1,"instance":1,"value":2}` + "\n\n\n"), &srv.ingestBodyCap,
			"server: reading pair stream: http: request body too large"},
		{"summaries", "/v1/summaries?dataset=d3", "application/json",
			summary, &srv.summaryBodyCap, "core: reading summary: http: request body too large"},
		{"summaries, sniffed", "/v1/summaries?dataset=d4", "",
			summary, &srv.summaryBodyCap, "core: reading summary: http: request body too large"},
	} {
		post := func() (int, string) {
			req := httptest.NewRequest(http.MethodPost, tc.target, bytes.NewReader(tc.body))
			req.Header.Set("Content-Type", tc.contentType)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			var refusal ErrorResult
			_ = json.Unmarshal(rec.Body.Bytes(), &refusal) // no error member in a 201
			return rec.Code, refusal.Error
		}
		*tc.cap = int64(len(tc.body)) - 1
		if code, message := post(); code != http.StatusRequestEntityTooLarge || message != tc.message {
			t.Errorf("%s, one byte over the cap: %d %q, want 413 %q", tc.name, code, message, tc.message)
		}
		*tc.cap = int64(len(tc.body))
		if code, message := post(); code != http.StatusCreated {
			t.Errorf("%s, a body of exactly the cap: %d %q, want 201", tc.name, code, message)
		}
	}
}

// BenchmarkIngestRaw is bench/summaryload's ingest_raw mix in process: two
// clients at once, each posting 100 000-pair bodies to the handler —
// ndjson and CSV by turns, bottom-k (k = 1024) and PPS (about 1024 keys
// kept) by turns — so that the scanners, the repeated-key tables of two
// concurrent requests, the samplers and the registry all take part. One
// op is one request of each client.
func BenchmarkIngestRaw(b *testing.B) {
	const pairs, clients = 100_000, 2
	bodies := map[string][]byte{"ndjson": scanBody("ndjson", pairs), "csv": scanBody("csv", pairs)}
	srv := New(NewRegistry(), engine.Config{})
	post := func(c, j int) {
		format, kind, params := "ndjson", "bottomk", "k=1024"
		if j%2 == 1 {
			format = "csv"
		}
		if j/2%2 == 1 {
			kind, params = "pps", "tau=48000" // values sum to ≈ 49 M: ≈ 1024 keys kept
		}
		url := fmt.Sprintf("/v1/ingest?dataset=raw_c%d_%s&instance=%d&salt=2011&format=%s&kind=%s&%s", c, kind, j/4%32, format, kind, params)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(bodies[format])))
		if rec.Code != http.StatusCreated {
			b.Errorf("POST %s: %d %s", url, rec.Code, rec.Body)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < b.N; j++ {
				post(c, j)
			}
		}()
	}
	wg.Wait()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(clients*pairs), "ns/pair")
}
