package server_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
)

// The ingest golden test: a fixed corpus of raw-ingest requests — bodies
// the scanners accept in every kind and format, and bodies that fail on a
// chosen line — posted to the handler, with everything a client or an
// operator could see of each compared with what the commit before the
// batch-at-a-time scanners answered: the status, the response body byte
// for byte, the stored summaries as canonical v2 bytes, and the engine's
// running pair count (which tells how many pairs a failed request pushed
// before it failed). The recorded side lives in testdata/ingest_golden.json
// and is rewritten — deliberately, never to make a failure go away — with
//
//	UPDATE_INGEST_GOLDEN=1 go test -run TestIngestGolden ./internal/server

const ingestGoldenFile = "testdata/ingest_golden.json"

// goldenLines is the length of the corpus bodies: two full scanner
// batches of 256 and a partial one.
const goldenLines = 600

type goldenRequest struct {
	name  string
	path  string // endpoint and query
	body  []byte
	fetch []int // instances to read back when the post succeeds
}

// goldenOutcome is what is recorded of one request.
type goldenOutcome struct {
	Name     string `json:"name"`
	Status   int    `json:"status"`
	Response string `json:"response"`
	// Stored maps an instance to the length and SHA-256 of its summary
	// as GET /v1/summaries returns it in wire version 2.
	Stored map[string]string `json:"stored,omitempty"`
	// EnginePairs is summaryd_engine_pairs_total after the request.
	EnginePairs float64 `json:"engine_pairs_total"`
}

func goldenKey(i int) uint64 { return uint64(i) * 2654435761 % (1 << 40) }

// goldenLine renders line i (1-based) of a valid body.
func goldenLine(format string, multi bool, key uint64, value string) string {
	instance := []string{"0", "7", "-2"}[key%3]
	switch {
	case format == "csv" && multi:
		return fmt.Sprintf("%d,%s,%s", key, instance, value)
	case format == "csv":
		return fmt.Sprintf("%d,%s", key, value)
	case multi:
		return fmt.Sprintf(`{"key":%d,"instance":%s,"value":%s}`, key, instance, value)
	default:
		return fmt.Sprintf(`{"key":%d,"value":%s}`, key, value)
	}
}

func goldenBody(format string, multi bool) []string {
	lines := make([]string, goldenLines)
	for i := range lines {
		lines[i] = goldenLine(format, multi, goldenKey(i+1), fmt.Sprintf("%d.25", 1+i%97))
	}
	return lines
}

func goldenCorpus() []goldenRequest {
	var reqs []goldenRequest
	add := func(name, path string, body string, fetch ...int) {
		reqs = append(reqs, goldenRequest{name: name, path: path, body: []byte(body), fetch: fetch})
	}
	join := func(lines []string) string { return strings.Join(lines, "\n") + "\n" }
	const single, multi = "/v1/ingest?salt=2011&instance=4&dataset=", "/v1/ingest/multi?salt=2011&instances=0,7,-2&dataset="

	for _, format := range []string{"csv", "ndjson"} {
		valid := goldenBody(format, false)
		keysOnly := make([]string, len(valid))
		for i := range keysOnly {
			keysOnly[i] = map[string]string{"csv": "%d", "ndjson": `{"key":%d}`}[format]
			keysOnly[i] = fmt.Sprintf(keysOnly[i], goldenKey(i+1))
		}
		// Valid bodies of each kind.
		add("pps "+format, single+"pps_"+format+"&kind=pps&tau=90&format="+format, join(valid), 4)
		add("bottomk "+format, single+"bk_"+format+"&kind=bottomk&k=64&format="+format, join(valid), 4)
		add("bottomk exp "+format, single+"bkexp_"+format+"&kind=bottomk&k=64&family=exp&format="+format, join(valid), 4)
		add("set "+format, single+"set_"+format+"&kind=set&p=0.2&format="+format, join(keysOnly), 4)
		add("set with values and repeats "+format, single+"setv_"+format+"&kind=set&p=0.2&format="+format, join(valid)+join(valid), 4)
		// The same pairs in other clothes.
		add("crlf "+format, single+"crlf_"+format+"&kind=pps&tau=90&format="+format, strings.Join(valid, "\r\n")+"\r\n", 4)
		add("no final newline "+format, single+"nonl_"+format+"&kind=pps&tau=90&format="+format, strings.Join(valid, "\n"), 4)
		add("blank lines "+format, single+"blank_"+format+"&kind=pps&tau=90&format="+format,
			"\n\n"+strings.Join(valid, "\n \n\t\r\n")+"\n\n\n", 4)
		add("padded lines "+format, single+"pad_"+format+"&kind=pps&tau=90&format="+format,
			"  "+strings.Join(valid, " \t\n  ")+" \n", 4)
		add("empty body "+format, single+"empty_"+format+"&kind=bottomk&k=64&format="+format, "", 4)
		add("one pair "+format, single+"one_"+format+"&kind=bottomk&k=64&format="+format, valid[0], 4)
		add("zero values "+format, single+"zero_"+format+"&kind=pps&tau=90&format="+format,
			goldenLine(format, false, 1, "0")+"\n"+goldenLine(format, false, 2, "-0")+"\n"+goldenLine(format, false, 3, "2e2")+"\n", 4)
		// Bodies that stop being bodies.
		add("line over 1 MiB "+format, single+"long_"+format+"&kind=pps&tau=90&format="+format,
			join(valid[:300])+strings.Repeat("9", 1<<20+5)+"\n"+join(valid[300:]))
		add("line of 1 MiB less one "+format, single+"long1_"+format+"&kind=pps&tau=90&format="+format,
			join(valid[:300])+strings.Repeat(" ", 1<<20-1)+"\n"+join(valid[300:]), 4)
		add("cut mid-line "+format, single+"cut_"+format+"&kind=pps&tau=90&format="+format,
			join(valid[:400])+valid[400][:len(valid[400])-3])
		add("key 0 twice "+format, single+"zero2_"+format+"&kind=pps&tau=90&format="+format,
			goldenLine(format, false, 0, "1")+"\n"+join(valid[:300])+goldenLine(format, false, 0, "2")+"\n"+join(valid[300:]))
		add("key 0 once "+format, single+"zero1_"+format+"&kind=pps&tau=0.5&format="+format,
			join(valid[:300])+goldenLine(format, false, 0, "5")+"\n"+join(valid[300:]), 4)

		// One failure on one line, at the batch edges.
		for _, at := range []int{1, 255, 256, 257, 512, goldenLines} {
			fail := func(name string, multiInstance bool, rewrite func(lines []string)) {
				lines := goldenBody(format, multiInstance)
				rewrite(lines)
				path, kind := single, "&kind=bottomk&k=64"
				if multiInstance {
					path, kind = multi, "&kind=pps&tau=90,80,70"
				}
				ds := fmt.Sprintf("fail_%s_%d_%s_%v", strings.ReplaceAll(name, " ", "_"), at, format, multiInstance)
				add(fmt.Sprintf("%s on line %d %s multi=%v", name, at, format, multiInstance), path+ds+kind+"&format="+format, join(lines))
			}
			for _, m := range []bool{false, true} {
				fail("malformed line", m, func(l []string) { l[at-1] = "{nope," })
				fail("bad value", m, func(l []string) { l[at-1] = goldenLine(format, m, goldenKey(at), "1e") })
				fail("negative value", m, func(l []string) { l[at-1] = goldenLine(format, m, goldenKey(at), "-2.5") })
				if at > 256 {
					fail("repeat of an earlier batch", m, func(l []string) { l[at-1] = goldenLine(format, m, goldenKey(at-256), "3") })
				}
				if at%256 != 1 {
					fail("repeat inside the batch", m, func(l []string) { l[at-1] = goldenLine(format, m, goldenKey(at-1), "3") })
				}
			}
			fail("unlisted instance", true, func(l []string) {
				l[at-1] = strings.NewReplacer(",7,", ",3,", `"instance":7`, `"instance":3`).Replace(goldenLine(format, true, 1, "1"))
			})
		}
		for _, m := range []bool{false, true} {
			lines := goldenBody(format, m)
			lines[265], lines[275] = goldenLine(format, m, goldenKey(265), "3"), "garbage"
			path, kind := single, "&kind=bottomk&k=64"
			if m {
				path, kind = multi, "&kind=bottomk&k=64"
			}
			add(fmt.Sprintf("repeat then garbage in one batch %s multi=%v", format, m),
				path+fmt.Sprintf("fail_both_%s_%v", format, m)+kind+"&format="+format, join(lines))
			lines = goldenBody(format, m)
			lines[265], lines[275] = "garbage", goldenLine(format, m, goldenKey(275), "3")
			add(fmt.Sprintf("garbage then repeat in one batch %s multi=%v", format, m),
				path+fmt.Sprintf("fail_both2_%s_%v", format, m)+kind+"&format="+format, join(lines))
		}

		// One pass, three instances.
		triples := goldenBody(format, true)
		add("multi pps "+format, multi+"mpps_"+format+"&kind=pps&tau=90,80,70&format="+format, join(triples), 0, 7, -2)
		add("multi bottomk "+format, multi+"mbk_"+format+"&kind=bottomk&k=32&format="+format, join(triples), 0, 7, -2)
		add("multi same key in every instance "+format, multi+"mall_"+format+"&kind=bottomk&k=32&format="+format,
			goldenLine(format, true, 3, "1")+"\n"+goldenLine(format, true, 4, "1")+"\n"+goldenLine(format, true, 5, "1")+"\n"+
				strings.NewReplacer(",0,", ",7,", `"instance":0`, `"instance":7`).Replace(goldenLine(format, true, 3, "2"))+"\n", 0, 7, -2)
	}
	// Headers are headers on line 1 only.
	csv := goldenBody("csv", false)
	add("csv header", single+"hdr&kind=pps&tau=90&format=csv", "key,value\n"+join(csv), 4)
	add("csv header on line 2", single+"hdr2&kind=pps&tau=90&format=csv", csv[0]+"\nkey,value\n"+join(csv[1:]))
	add("csv multi header", multi+"mhdr&kind=pps&tau=90&format=csv", "key,instance,value\n"+join(goldenBody("csv", true)), 0, 7, -2)
	return reqs
}

// runGoldenCorpus posts the corpus to a fresh server and records the
// outcomes.
func runGoldenCorpus(t *testing.T) []goldenOutcome {
	t.Helper()
	srv := server.New(server.NewRegistry(), engine.Config{},
		server.WithObserver(server.NewObserver(obs.NewRegistry())))
	do := func(method, target, accept string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}
	var out []goldenOutcome
	for _, rq := range goldenCorpus() {
		rec := do(http.MethodPost, rq.path, "", rq.body)
		o := goldenOutcome{Name: rq.name, Status: rec.Code, Response: rec.Body.String()}
		if rec.Code == http.StatusCreated {
			o.Stored = make(map[string]string)
			dataset := rq.path[strings.LastIndex(rq.path, "dataset=")+len("dataset="):]
			dataset, _, _ = strings.Cut(dataset, "&")
			for _, instance := range rq.fetch {
				got := do(http.MethodGet, fmt.Sprintf("/v1/summaries?dataset=%s&instance=%d", dataset, instance), core.ContentTypeV2, nil)
				if got.Code != http.StatusOK {
					t.Fatalf("%s: fetching instance %d: %d %s", rq.name, instance, got.Code, got.Body)
				}
				o.Stored[fmt.Sprint(instance)] = fmt.Sprintf("%d:%x", got.Body.Len(), sha256.Sum256(got.Body.Bytes()))
			}
		}
		for _, line := range strings.Split(do(http.MethodGet, "/metrics", "", nil).Body.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "summaryd_engine_pairs_total "); ok {
				if _, err := fmt.Sscan(rest, &o.EnginePairs); err != nil {
					t.Fatalf("%s: parsing %q: %v", rq.name, line, err)
				}
			}
		}
		out = append(out, o)
	}
	return out
}

func TestIngestGolden(t *testing.T) {
	if os.Getenv("UPDATE_INGEST_GOLDEN") != "" {
		data, err := json.MarshalIndent(runGoldenCorpus(t), "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ingestGoldenFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(ingestGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenOutcome
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", ingestGoldenFile, err)
	}
	got := runGoldenCorpus(t)
	if len(got) != len(want) {
		t.Fatalf("corpus has %d requests, %s records %d", len(got), ingestGoldenFile, len(want))
	}
	failed := 0
	for i, g := range got {
		w := want[i]
		ok := g.Name == w.Name && g.Status == w.Status && g.Response == w.Response &&
			g.EnginePairs == w.EnginePairs && len(g.Stored) == len(w.Stored)
		for instance, sum := range w.Stored {
			ok = ok && g.Stored[instance] == sum
		}
		if !ok {
			t.Errorf("request %d\n got  %+v\n want %+v", i, g, w)
			if failed++; failed == 5 {
				t.Fatal("(further differences not shown)")
			}
		}
	}
}
