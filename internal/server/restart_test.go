package server_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/internal/store"
	"repro/pkg/api"
)

// TestRestartServesIdentically: how a summary arrived — v1 JSON, canonical
// v2, raw ingest, or a v2 body with its entries in descending key order —
// and whether the process has restarted since decide nothing about how it
// is served. Every query answers with the same bits before and after a
// kill (half the summaries in a snapshot, half in the WAL), and explain
// reports each summary at the length of its v2 encoding throughout.
func TestRestartServesIdentically(t *testing.T) {
	dir := t.TempDir()
	open := func() (*httptest.Server, *server.Registry, *store.Store) {
		reg := server.NewRegistry()
		st, err := store.Open(dir, store.Options{}, reg.Put)
		if err != nil {
			t.Fatal(err)
		}
		reg.SetPersister(st)
		return httptest.NewServer(server.New(reg, engine.Config{})), reg, st
	}
	ts, reg, st := open()

	sites := fixture(900)
	sites = append(sites, sites[0])
	summ := core.NewSummarizer(testSalt)
	local := make([]*core.PPSSummary, 4)
	encoded := make([][]byte, 4)
	taus := make([]float64, 4)
	for i := range local {
		taus[i] = sampling.TauForExpectedSize(sites[i], 80+10*float64(i))
		local[i] = summ.SummarizePPS(i, sites[i], taus[i])
		var err error
		if encoded[i], err = core.EncodeSummary(local[i], 2); err != nil {
			t.Fatal(err)
		}
	}
	mustPost := func(url, contentType string, body []byte) {
		t.Helper()
		resp := postBody(t, ts.URL+url, contentType, body)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, msg)
		}
	}
	// Instance 0 as v1 JSON, instance 1 as v2; snapshot; then instance 2
	// by raw ingest and instance 3 as v2 with its entries reversed.
	v1, err := core.EncodeSummary(local[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	mustPost("/v1/summaries?dataset=flows", core.ContentTypeJSON, v1)
	mustPost("/v1/summaries?dataset=flows", core.ContentTypeV2, encoded[1])
	if err := reg.Snapshot(); err != nil {
		t.Fatal(err)
	}
	mustPost(fmt.Sprintf("/v1/ingest?dataset=flows&instance=2&kind=pps&tau=%v&salt=%d&format=ndjson", taus[2], testSalt),
		"application/x-ndjson", ndjsonBody(sites[2]))
	n := local[3].Size()
	head := len(encoded[3]) - 16*n
	descending := bytes.Clone(encoded[3][:head])
	for i := n - 1; i >= 0; i-- {
		descending = append(descending, encoded[3][head+16*i:head+16*(i+1)]...)
	}
	if n < 2 || bytes.Equal(descending, encoded[3]) {
		t.Fatalf("fixture of %d entries cannot be reordered", n)
	}
	mustPost("/v1/summaries?dataset=flows", core.ContentTypeV2, descending)

	hot := local[0].AppendKeys(nil)[0]
	type answers struct {
		dominance [][2]float64
		sums      []float64
		quantile  float64
		bytes     []int
	}
	ask := func() answers {
		t.Helper()
		var a answers
		for _, pair := range [][2]int{{0, 1}, {2, 3}, {0, 3}, {1, 2}} {
			res := getJSON[api.DominanceResult](t, fmt.Sprintf("%s/v1/query?dataset=flows&q=maxdominance&instances=%d,%d", ts.URL, pair[0], pair[1]))
			a.dominance = append(a.dominance, [2]float64{res.HT, res.L})
		}
		for i := range local {
			res := getJSON[api.SumResult](t, fmt.Sprintf("%s/v1/query?dataset=flows&q=sum&instances=%d&explain=1", ts.URL, i))
			a.sums = append(a.sums, res.Sum, res.Accuracy.StdErr)
			if res.Explain == nil || len(res.Explain.Summaries) != 1 {
				t.Fatalf("instance %d: explain block %+v", i, res.Explain)
			}
			a.bytes = append(a.bytes, res.Explain.Summaries[0].Bytes)
		}
		a.quantile = getJSON[api.QuantileResult](t, fmt.Sprintf("%s/v1/query?dataset=flows&q=quantile&key=%d&l=2", ts.URL, hot)).HT
		return a
	}
	check := func(when string, got answers) {
		t.Helper()
		for i, b := range got.bytes {
			if b != len(encoded[i]) {
				t.Errorf("%s: explain reports instance %d at %d bytes, want the %d of its v2 encoding", when, i, b, len(encoded[i]))
			}
		}
		for i, s := range local {
			if want := s.SubsetSum(nil); math.Float64bits(got.sums[2*i]) != math.Float64bits(want) {
				t.Errorf("%s: sum of instance %d = %v, in-process %v", when, i, got.sums[2*i], want)
			}
		}
	}
	before := ask()
	check("before the restart", before)

	// Kill: no farewell snapshot. Instances 0 and 1 come back from the
	// snapshot, 2 and 3 from the WAL.
	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	ts, _, st = open()
	defer ts.Close()
	defer st.Close()
	after := ask()
	check("after the restart", after)

	sameBits := func(what string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s: %v before the restart, %v after", what, a, b)
		}
	}
	for i := range before.dominance {
		sameBits(fmt.Sprintf("maxdominance pair %d HT", i), before.dominance[i][0], after.dominance[i][0])
		sameBits(fmt.Sprintf("maxdominance pair %d L", i), before.dominance[i][1], after.dominance[i][1])
	}
	for i := range before.sums {
		sameBits(fmt.Sprintf("sum answer %d", i), before.sums[i], after.sums[i])
	}
	sameBits("quantile", before.quantile, after.quantile)
}
