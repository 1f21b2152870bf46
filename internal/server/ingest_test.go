package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/pkg/api"
)

// TestOversizedBodyIs413: a body over the endpoint's cap is refused as
// too large — 413, where it used to be a generic 400 — with the message
// it always had, on each endpoint that reads a capped body, wherever the
// cap falls: on a line boundary, or in the middle of a line whose first
// part would not parse. A body of exactly the cap is not refused. The
// caps are 64 and 256 MiB; the test puts a reader capped the same way in
// front of the handler's, so the body ends in the same error a few bytes
// in. What the requests carry is valid, so size is all that is wrong with
// them.
func TestOversizedBodyIs413(t *testing.T) {
	srv := New(NewRegistry(), engine.Config{})
	summary, err := core.EncodeSummary(core.NewSummarizer(1).SummarizePPS(0, dataset.Instance{1: 2, 3: 4}, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	csv := "1,2\n3,4\n5,6\n"
	ndjson := `{"key":1,"instance":0,"value":2}` + "\n" + `{"key":1,"instance":1,"value":2}` + "\n"
	for _, tc := range []struct {
		name, target, contentType, body string
		over                            []int // caps under len(body)
		message                         string
	}{
		{"ingest", "/v1/ingest?dataset=d1&instance=0&kind=pps&tau=5&salt=1&format=csv", "text/csv", csv,
			[]int{len(csv) - 1, len("1,2\n3,4\n"), len("1,2\n3,4\n5,"), len("1,2\n3"), 0},
			"server: reading pair stream: http: request body too large"},
		{"ingest multi", "/v1/ingest/multi?dataset=d2&instances=0,1&kind=pps&tau=5&salt=1", "application/x-ndjson", ndjson,
			[]int{len(ndjson) - 1, len(ndjson) / 2, len(ndjson)/2 + 10, 1},
			"server: reading pair stream: http: request body too large"},
		{"summaries", "/v1/summaries?dataset=d3", "application/json", string(summary),
			[]int{len(summary) - 1, len(summary) / 2}, "core: reading summary: http: request body too large"},
		{"summaries, sniffed", "/v1/summaries?dataset=d4", "", string(summary),
			[]int{len(summary) - 1}, "core: reading summary: http: request body too large"},
	} {
		post := func(limit int) (int, string) {
			req := httptest.NewRequest(http.MethodPost, tc.target, nil)
			req.Body = http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(tc.body)), int64(limit))
			req.Header.Set("Content-Type", tc.contentType)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			var refusal api.ErrorResult
			_ = json.Unmarshal(rec.Body.Bytes(), &refusal) // no error member in a 201
			return rec.Code, refusal.Error
		}
		for _, limit := range tc.over {
			if code, message := post(limit); code != http.StatusRequestEntityTooLarge || message != tc.message {
				t.Errorf("%s, cap at byte %d of %d: %d %q, want 413 %q", tc.name, limit, len(tc.body), code, message, tc.message)
			}
		}
		if code, message := post(len(tc.body)); code != http.StatusCreated {
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

// stallingBody is a request body that hands over its first part, then
// stalls — it closes stalled and waits for resume — before the rest.
type stallingBody struct {
	first, rest     io.Reader
	stalled, resume chan struct{}
}

func (b *stallingBody) Read(p []byte) (int, error) {
	if n, err := b.first.Read(p); err != io.EOF {
		return n, err
	}
	if b.stalled != nil {
		close(b.stalled)
		b.stalled = nil
		<-b.resume
	}
	return b.rest.Read(p)
}

// TestCancelledIngestStopsAtNextBatch: a request cancelled while its body
// stalls is not scanned to the end once the body moves again. The scan
// pushes the batch it was filling and stops; the engine counts exactly
// the pairs pushed, nothing is registered, and the scan buffer and the
// repeated-key tables go back where the next request finds them.
func TestCancelledIngestStopsAtNextBatch(t *testing.T) {
	const (
		sent   = 60*ingestBatch + 100 // lines the scan has when the body stalls: enough keys for pooled tables
		unsent = 10_000               // lines behind the stall: forty batches nobody wants
		rounds = 16
		pushed = (sent/ingestBatch + 1) * ingestBatch
	)
	// A pool of the test's own: every buffer in it was put there by a scan
	// below, and every miss is counted. (Under the race detector a Pool
	// drops a Put in four, hence rounds: one reuse among them is the proof.)
	newBufs, newBuf := 0, scanBufPool.New
	scanBufPool = sync.Pool{New: func() any { newBufs++; return newBuf() }}
	defer func() { scanBufPool = sync.Pool{New: newBuf} }()
	for _, tc := range []struct {
		name, target, format string
		multi                bool
	}{
		{"ingest", "/v1/ingest?dataset=gone&instance=0&kind=bottomk&k=64&salt=1&format=csv", "csv", false},
		{"ingest multi", "/v1/ingest/multi?dataset=gone&instances=0,7,-2&kind=pps&tau=5&salt=1&format=ndjson", "ndjson", true},
	} {
		var first, rest bytes.Buffer
		for i := 0; i < sent+unsent; i++ {
			into := &first
			if i >= sent {
				into = &rest
			}
			into.WriteString(pairLine(tc.format, tc.multi, uint64(i), "1"))
			into.WriteByte('\n')
		}
		srv := New(NewRegistry(), engine.Config{})
		for round := 1; round <= rounds; round++ {
			keyTables.mu.Lock()
			keyTables.free = nil
			keyTables.mu.Unlock()
			ctx, cancel := context.WithCancel(context.Background())
			body := &stallingBody{first: bytes.NewReader(first.Bytes()), rest: bytes.NewReader(rest.Bytes()),
				stalled: make(chan struct{}), resume: make(chan struct{})}
			go func(stalled, resume chan struct{}) {
				<-stalled
				cancel()
				close(resume)
			}(body.stalled, body.resume)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.target, body).WithContext(ctx))
			var refusal api.ErrorResult
			if err := json.Unmarshal(rec.Body.Bytes(), &refusal); err != nil || rec.Code != http.StatusBadRequest ||
				refusal.Error != "server: ingest abandoned: context canceled" {
				t.Fatalf("%s: %d %s, want 400 and the scan abandoned", tc.name, rec.Code, rec.Body)
			}
			if got := srv.engine.pairs.Load(); got != uint64(round*pushed) {
				t.Fatalf("%s: engine counts %d pairs after %d cancelled requests, want %d each: the %d scanned before the stall and the rest of their batch",
					tc.name, got, round, pushed, sent)
			}
			if got := srv.reg.list(); len(got) != 0 {
				t.Fatalf("%s: a cancelled ingest registered %+v", tc.name, got)
			}
			keyTables.mu.Lock()
			tables := len(keyTables.free)
			keyTables.mu.Unlock()
			if tables == 0 {
				t.Fatalf("%s: the cancelled scan's key tables did not come back", tc.name)
			}
		}
	}
	if scans := 2 * rounds; newBufs >= scans {
		t.Fatalf("%d scans took %d new scan buffers: none came back to the pool", scans, newBufs)
	}
}
