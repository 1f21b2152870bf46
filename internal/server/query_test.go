package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/pkg/api"
)

// The query table's tests iterate queryKinds instead of restating it: every
// row is asked over every summary kind the server ingests, under both
// randomizations, at every arity; its parameters are fuzzed; the README's
// table is held to it.

// ingestKinds are the summary kinds /v1/ingest builds, with the parameters
// the fixture draws them under.
var ingestKinds = []struct{ kind, params string }{
	{"pps", "tau=20"},
	{"bottomk", "k=64"},
	{"set", "p=0.3"},
}

// request serves one request in process.
func request(h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec
}

// queryFixture ingests three overlapping instances (0, 1, 2) of every
// ingestible kind, as dataset "<kind>", and returns the dataset names.
func queryFixture(t testing.TB, h http.Handler) []string {
	t.Helper()
	var datasets []string
	for _, k := range ingestKinds {
		ds := k.kind
		datasets = append(datasets, ds)
		for i := 0; i < 3; i++ {
			var body bytes.Buffer
			for key := 1 + 60*i; key <= 300+60*i; key++ {
				fmt.Fprintf(&body, "%d,%d.25\n", key, 1+(key*7+i)%13)
			}
			target := fmt.Sprintf("/v1/ingest?dataset=%s&instance=%d&kind=%s&%s&salt=2011&format=csv",
				ds, i, k.kind, k.params)
			if rec := request(h, "POST", target, body.Bytes()); rec.Code != http.StatusCreated {
				t.Fatalf("POST %s: %d %s", target, rec.Code, rec.Body)
			}
		}
	}
	return datasets
}

// paramValues are the values the table tests pass for a row's parameters.
var paramValues = map[string]string{"key": "7", "l": "2"}

// queryTarget renders a query over the first n instances of a dataset, with
// a value for every parameter the row names.
func queryTarget(k queryKind, ds string, n int, extra string) string {
	target := fmt.Sprintf("/v1/query?dataset=%s&q=%s&instances=%s", ds, k.name, "0,1,2"[:2*n-1])
	for _, p := range k.params {
		target += "&" + p + "=" + paramValues[p]
	}
	return target + extra
}

const queryGoldenFile = "testdata/query_golden.json"

// queryOutcome is what is recorded of one cell.
type queryOutcome struct {
	Target string `json:"target"`
	Status int    `json:"status"`
	Body   string `json:"body"`
}

// TestQueryTableCoversEveryKind asks every row of the table over every
// ingestible summary kind at one, two and three instances. No cell may answer a 5xx; a cell outside the row's
// declared kinds or arity must be a typed refusal; and every byte of every
// answer — status, result, error text — must be what the hand-written
// switch the table replaced answered, as recorded in testdata/query_golden.json
// (rewritten, deliberately, with UPDATE_QUERY_GOLDEN=1).
func TestQueryTableCoversEveryKind(t *testing.T) {
	h := New(NewRegistry(), engine.Config{})
	datasets := queryFixture(t, h)

	var got []queryOutcome
	ask := func(target string) (int, string) {
		rec := request(h, "GET", target, nil)
		got = append(got, queryOutcome{Target: target, Status: rec.Code, Body: rec.Body.String()})
		if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code > 499) {
			t.Errorf("GET %s: status %d, want 200 or a 4xx: %s", target, rec.Code, rec.Body)
		}
		var refusal api.ErrorResult
		if rec.Code != http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &refusal); err != nil || refusal.Error == "" {
				t.Errorf("GET %s: status %d without a JSON error body: %s", target, rec.Code, rec.Body)
			}
		}
		return rec.Code, refusal.Error
	}
	for _, k := range queryKinds {
		for _, kind := range datasets {
			for n := 1; n <= 3; n++ {
				target := queryTarget(k, kind, n, "")
				status, refusal := ask(target)
				switch {
				case !slices.Contains(k.kinds, kind) && !(kind == k.alone && n == 1):
					if want := fmt.Sprintf("server: %s requires %s summaries, dataset holds %s", k.name, k.kinds[0], kind); status != http.StatusBadRequest || refusal != want {
						t.Errorf("GET %s: %d %q, want 400 %q", target, status, refusal, want)
					}
				case n < k.minArity || (k.maxArity > 0 && n > k.maxArity):
					if status != http.StatusBadRequest {
						t.Errorf("GET %s: status %d for %d instances, want 400 (arity %d..%d)", target, status, n, k.minArity, k.maxArity)
					}
				}
				if n == 2 {
					ask(queryTarget(k, kind, n, "&explain=1"))
				}
			}
		}
		// The row without its own parameters, over all of a dataset.
		ask("/v1/query?dataset=" + k.kinds[0] + "&q=" + k.name)
	}
	for _, target := range []string{
		"/v1/query?dataset=pps",
		"/v1/query?dataset=pps&q=median",
		"/v1/query?dataset=pps&q=quantile&instances=0,1&key=7&l=two",
		"/v1/query?dataset=pps&q=quantile&instances=0,1&key=7&l=3",
		"/v1/query?dataset=pps&q=maxdominance&instances=1,1",
		"/v1/query?dataset=pps&q=sum&instances=0,x",
		"/v1/query?dataset=pps&q=sum&instances=9",
		"/v1/query?dataset=nowhere&q=sum",
		"/v1/query?q=sum",
	} {
		ask(target)
	}

	if os.Getenv("UPDATE_QUERY_GOLDEN") != "" {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(queryGoldenFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d cells in %s", len(got), queryGoldenFile)
		return
	}
	data, err := os.ReadFile(queryGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []queryOutcome
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("asked %d cells, %s records %d", len(got), queryGoldenFile, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("cell %d differs from the recorded answer\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestNonFiniteAnswerIs422: two finite values whose sum estimate overflows
// are accepted at ingest, and the query over them is refused as
// unprocessable — naming the query and the instance, as a 4xx in the
// metrics and with nothing logged at error — not answered as a server
// fault.
func TestNonFiniteAnswerIs422(t *testing.T) {
	var logs bytes.Buffer
	reg := obs.NewRegistry()
	h := New(NewRegistry(), engine.Config{}, WithObserver(NewObserver(reg,
		WithRequestLogger(slog.New(slog.NewJSONHandler(&logs, nil))))))
	body := []byte("1,1.7976931348623157e308\n2,1.7976931348623157e308\n")
	if rec := request(h, "POST", "/v1/ingest?dataset=huge&instance=3&kind=bottomk&k=10&salt=1&format=csv", body); rec.Code != http.StatusCreated {
		t.Fatalf("ingest of finite values: %d %s", rec.Code, rec.Body)
	}
	rec := request(h, "GET", "/v1/query?dataset=huge&q=sum", nil)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("overflowing sum: %d %s, want 422", rec.Code, rec.Body)
	}
	var refusal api.ErrorResult
	if err := json.Unmarshal(rec.Body.Bytes(), &refusal); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sum", "instances [3]", `"huge"`, "+Inf"} {
		if !strings.Contains(refusal.Error, want) {
			t.Errorf("refusal %q does not name %s", refusal.Error, want)
		}
	}
	if strings.Contains(logs.String(), `"level":"ERROR"`) {
		t.Errorf("a refused query logged at error:\n%s", logs.String())
	}
	metrics := request(reg.Handler(), "GET", "/metrics", nil).Body.String()
	if !strings.Contains(metrics, `summaryd_http_requests_total{code="4xx",endpoint="/v1/query"} 1`) ||
		!strings.Contains(metrics, `summaryd_http_requests_total{code="5xx",endpoint="/v1/query"} 0`) {
		t.Errorf("the refusal is not counted as one 4xx and no 5xx:\n%s", metrics)
	}
}

// TestHandlerPanicIsContained: a panic under the request middleware answers
// one 500 that names the request and its trace, is counted once under
// root="http", and leaves the server serving.
func TestHandlerPanicIsContained(t *testing.T) {
	queryKinds = append(queryKinds, queryKind{
		name: "panic", kinds: []string{"pps"}, minArity: 1,
		run: func(queryCall) (any, int, error) { panic("injected") },
	})
	defer func() { queryKinds = queryKinds[:len(queryKinds)-1] }()

	var logs bytes.Buffer
	reg := obs.NewRegistry()
	h := New(NewRegistry(), engine.Config{},
		WithObserver(NewObserver(reg, WithRequestLogger(slog.New(slog.NewJSONHandler(&logs, nil))))),
		WithTracer(trace.New(8)))
	queryFixture(t, h)
	panics := func() string {
		for _, line := range strings.Split(request(reg.Handler(), "GET", "/metrics", nil).Body.String(), "\n") {
			if strings.HasPrefix(line, "summaryd_panics_total{") {
				return line
			}
		}
		return ""
	}
	if got, want := panics(), `summaryd_panics_total{root="http"} 0`; got != want {
		t.Fatalf("before any panic: %q, want %q", got, want)
	}

	rec := request(h, "GET", "/v1/query?dataset=pps&q=panic", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking query: %d %s, want 500", rec.Code, rec.Body)
	}
	var refusal api.ErrorResult
	if err := json.Unmarshal(rec.Body.Bytes(), &refusal); err != nil {
		t.Fatalf("panicking query answered %q: %v", rec.Body, err)
	}
	rid, traceparent := rec.Header().Get("X-Request-ID"), rec.Header().Get("traceparent")
	if rid == "" || !strings.Contains(refusal.Error, "request_id="+rid) {
		t.Errorf("refusal %q does not name request %q", refusal.Error, rid)
	}
	if parts := strings.Split(traceparent, "-"); len(parts) != 4 || !strings.Contains(refusal.Error, "trace_id="+parts[1]) {
		t.Errorf("refusal %q does not name the trace of %q", refusal.Error, traceparent)
	}
	if got, want := panics(), `summaryd_panics_total{root="http"} 1`; got != want {
		t.Errorf("after one panic: %q, want %q", got, want)
	}
	if !strings.Contains(logs.String(), `"msg":"panic"`) || !strings.Contains(logs.String(), "injected") {
		t.Errorf("the panic was not logged:\n%s", logs.String())
	}
	if rec := request(h, "GET", "/v1/query?dataset=pps&q=maxdominance&instances=0,1", nil); rec.Code != http.StatusOK {
		t.Errorf("the request after the panic: %d %s, want 200", rec.Code, rec.Body)
	}
}

// FuzzQueryParams throws URL values at every row of the table, over every
// ingestible summary kind: whatever the parameters, the answer is a 200 or
// a typed 4xx — no 5xx, and no panic (which, with no middleware here to
// contain it, fails the fuzzer outright).
func FuzzQueryParams(f *testing.F) {
	h := New(NewRegistry(), engine.Config{})
	datasets := queryFixture(f, h)
	for row := range queryKinds {
		f.Add(uint8(row), uint8(row), "0,1", "7", "1", "1")
	}
	f.Add(uint8(0), uint8(0), "", "", "", "")
	f.Add(uint8(2), uint8(0), "0,1,2", "18446744073709551615", "-1", "0")
	f.Add(uint8(3), uint8(5), "2,2", "1e3", "9223372036854775808", "yes")
	f.Fuzz(func(t *testing.T, row, ds uint8, instances, first, second, explain string) {
		k := queryKinds[int(row)%len(queryKinds)]
		q := url.Values{
			"dataset":   {datasets[int(ds)%len(datasets)]},
			"q":         {k.name},
			"instances": {instances},
			"explain":   {explain},
		}
		for i, p := range k.params {
			q.Set(p, []string{first, second}[i%2])
		}
		target := "/v1/query?" + q.Encode()
		if rec := request(h, "GET", target, nil); rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code > 499) {
			t.Errorf("GET %s: status %d, want 200 or a 4xx: %s", target, rec.Code, rec.Body)
		}
	})
}

// queryTableRow renders a row as the README's query table prints it.
func queryTableRow(k queryKind) string {
	instances := fmt.Sprintf("%d or more", k.minArity)
	if k.maxArity == k.minArity {
		instances = fmt.Sprintf("exactly %d", k.minArity)
	}
	params := "—"
	if len(k.params) > 0 {
		params = "`" + strings.Join(k.params, "=`, `") + "=`"
	}
	kinds := "`" + strings.Join(k.kinds, "`, `") + "`"
	if k.alone != "" {
		kinds += ", or one `" + k.alone + "`"
	}
	return fmt.Sprintf("| `%s` | %s | %s | %s |", k.name, kinds, instances, params)
}

// TestREADMEQueryTableMatchesQueryKinds: the README documents each query
// kind with exactly the summary kinds, arity and parameters its row
// declares, and documents no other.
func TestREADMEQueryTableMatchesQueryKinds(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const header = "| `q=` | summary kinds | instances | parameters |\n|---|---|---|---|\n"
	_, table, ok := strings.Cut(string(readme), header)
	if !ok {
		t.Fatalf("README.md has no query table (header %q)", header)
	}
	table, _, _ = strings.Cut(table, "\n\n")
	var want []string
	for _, k := range queryKinds {
		want = append(want, queryTableRow(k))
	}
	if got := strings.Split(table, "\n"); !slices.Equal(got, want) {
		t.Errorf("README.md's query table is\n%s\nand queryKinds renders as\n%s", table, strings.Join(want, "\n"))
	}
}
