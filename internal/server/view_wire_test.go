package server_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/pkg/api"
)

// These tests pin the v2 post path: a canonical v2 POST is stored as the
// posted bytes, every query over it answers bit-identically to the
// in-process estimate, and re-fetching it as v2 returns exactly the posted
// bytes.

func getJSON[T any](t *testing.T, url string) T {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return decodeResult[T](t, resp)
}

func postV2(t *testing.T, url, ds string, sum core.Summary) []byte {
	t.Helper()
	data, err := core.EncodeSummary(sum, 2)
	if err != nil {
		t.Fatal(err)
	}
	resp := postBody(t, url+"/v1/summaries?dataset="+ds, core.ContentTypeV2, data)
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("post %s to %s: status %d: %s", sum.Kind(), ds, resp.StatusCode, body)
	}
	resp.Body.Close()
	return data
}

// TestViewPostQueryFetch: every summary kind posted as v2 answers queries
// bit-identically to the in-process estimates, and fetches back as exactly
// the posted bytes.
func TestViewPostQueryFetch(t *testing.T) {
	ts := httptest.NewServer(server.New(server.NewRegistry(), engine.Config{}))
	defer ts.Close()
	url := ts.URL
	sites := fixture(1200)
	summ := core.NewSummarizer(testSalt)

	// PPS pair for maxdominance + per-kind sum checks.
	pps := []core.PPSReader{
		summ.SummarizePPSExpectedSize(0, sites[0], 150),
		summ.SummarizePPSExpectedSize(1, sites[1], 150),
	}
	var posted [][]byte
	for _, p := range pps {
		posted = append(posted, postV2(t, url, "flows", p))
	}
	want, err := core.MaxDominanceReaders(pps[0], pps[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	dom := getJSON[api.DominanceResult](t, url+"/v1/query?dataset=flows&q=maxdominance&instances=0,1")
	if math.Float64bits(dom.HT) != math.Float64bits(want.HT) || math.Float64bits(dom.L) != math.Float64bits(want.L) {
		t.Errorf("maxdominance over posted summaries (HT %v, L %v) != in-process (HT %v, L %v)", dom.HT, dom.L, want.HT, want.L)
	}
	sum := getJSON[api.SumResult](t, url+"/v1/query?dataset=flows&q=sum&instances=0")
	if math.Float64bits(sum.Sum) != math.Float64bits(pps[0].SubsetSum(nil)) {
		t.Errorf("sum over posted summary %v != in-process %v", sum.Sum, pps[0].SubsetSum(nil))
	}

	// Fetching the summary as v2 returns the posted bytes verbatim.
	req, err := http.NewRequest("GET", url+"/v1/summaries?dataset=flows&instance=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", core.ContentTypeV2)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch v2: status %d, err %v", resp.StatusCode, err)
	}
	if !bytes.Equal(body, posted[0]) {
		t.Error("fetched v2 bytes differ from the posted bytes")
	}

	// Set summaries: distinct over three posted summaries.
	var sets []core.SetReader
	for i, in := range sites {
		set := summ.SummarizeSet(i, members(in), 0.3)
		sets = append(sets, set)
		postV2(t, url, "presence", set)
	}
	wantD, err := core.DistinctCountMultiReaders(sets, nil)
	if err != nil {
		t.Fatal(err)
	}
	dis := getJSON[api.DistinctResult](t, url+"/v1/query?dataset=presence&q=distinct")
	if math.Float64bits(dis.HT) != math.Float64bits(wantD.HT) ||
		math.Float64bits(dis.L) != math.Float64bits(wantD.L) || dis.KeysUsed != wantD.KeysUsed {
		t.Errorf("distinct over posted summaries (%v, %v, %d) != in-process (%v, %v, %d)",
			dis.HT, dis.L, dis.KeysUsed, wantD.HT, wantD.L, wantD.KeysUsed)
	}

	// Bottom-k: sum over a posted summary.
	bk := summ.SummarizeBottomK(0, sites[2], 100, sampling.EXP{})
	postV2(t, url, "ranked", bk)
	bks := getJSON[api.SumResult](t, url+"/v1/query?dataset=ranked&q=sum&instances=0")
	if math.Float64bits(bks.Sum) != math.Float64bits(bk.SubsetSum(nil)) {
		t.Errorf("bottomk sum over posted summary %v != in-process %v", bks.Sum, bk.SubsetSum(nil))
	}
}

// TestPostNonCanonicalIsCanonicalised: a valid v2 payload that is not the
// canonical encoding (non-minimal entry-count varint) is accepted, and
// stored, queried and fetched back as the canonical one.
func TestPostNonCanonicalIsCanonicalised(t *testing.T) {
	ts := httptest.NewServer(server.New(server.NewRegistry(), engine.Config{}))
	defer ts.Close()
	summ := core.NewSummarizer(testSalt)
	sum := summ.SummarizePPSExpectedSize(0, dataset.Instance{3: 2, 8: 5, 21: 1}, 10)
	data, err := core.EncodeSummary(sum, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the one-byte entry count (offset 22: 5 header + 8 salt +
	// 1 instance varint + 8 tau) as a two-byte non-minimal uvarint.
	if data[22] >= 0x80 {
		t.Fatalf("fixture entry count %d not a one-byte uvarint", data[22])
	}
	bad := append(append([]byte{}, data[:22]...), data[22]|0x80, 0x00)
	bad = append(bad, data[23:]...)

	resp := postBody(t, ts.URL+"/v1/summaries?dataset=nc", core.ContentTypeV2, bad)
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("non-canonical v2 post: status %d: %s", resp.StatusCode, body)
	}
	resp.Body.Close()
	got := getJSON[api.SumResult](t, ts.URL+"/v1/query?dataset=nc&q=sum&instances=0")
	if math.Float64bits(got.Sum) != math.Float64bits(sum.SubsetSum(nil)) {
		t.Errorf("sum over the canonicalised post %v != in-process %v", got.Sum, sum.SubsetSum(nil))
	}
	req, err := http.NewRequest("GET", ts.URL+"/v1/summaries?dataset=nc&instance=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", core.ContentTypeV2)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	fetched, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !bytes.Equal(fetched, data) {
		t.Errorf("fetched v2 bytes are not the canonical encoding (err %v)", err)
	}
}

// TestNonFiniteEntryValuesRefused: a v2 post whose weighted entry value is
// +Inf, NaN or negative is a 400 with a JSON error body — as canonical
// bytes and with the same entries in descending key order, which the
// decoder would otherwise canonicalise — and leaves nothing behind to
// query.
func TestNonFiniteEntryValuesRefused(t *testing.T) {
	ts := httptest.NewServer(server.New(server.NewRegistry(), engine.Config{}))
	defer ts.Close()
	summ := core.NewSummarizer(testSalt)
	good, err := core.EncodeSummary(summ.SummarizePPS(0, dataset.Instance{5: 2, 9: 4}, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	n := len(good)
	descending := bytes.Clone(good) // swap the two 16-byte entries
	copy(descending[n-32:n-16], good[n-16:])
	copy(descending[n-16:], good[n-32:n-16])
	for path, body := range map[string][]byte{"canonical": good, "descending": descending} {
		if resp := postBody(t, ts.URL+"/v1/summaries?dataset=ok-"+path, core.ContentTypeV2, body); resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s path: finite values refused with %d", path, resp.StatusCode)
		}
		for _, bad := range []float64{math.Inf(1), math.NaN(), -3} {
			b := bytes.Clone(body)
			binary.LittleEndian.PutUint64(b[n-8:], math.Float64bits(bad))
			resp := postBody(t, ts.URL+"/v1/summaries?dataset=bad", core.ContentTypeV2, b)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s path: entry value %v answered %d, want 400", path, bad, resp.StatusCode)
			}
			if e := decodeResult[api.ErrorResult](t, resp); e.Error == "" {
				t.Errorf("%s path: entry value %v refused without an error body", path, bad)
			}
		}
	}
	resp, err := http.Get(ts.URL + "/v1/query?dataset=bad&q=sum&instances=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("refused posts left a queryable dataset: status %d", resp.StatusCode)
	}
}

// TestUnencodableResultIsAnError: an estimate JSON cannot represent — here
// a sum of finite values that overflows to +Inf — is a property of the
// posted values, so it answers a 422 with a JSON error body naming the query
// and the instance: never a 200 whose body is empty, and never a 500.
func TestUnencodableResultIsAnError(t *testing.T) {
	ts := httptest.NewServer(server.New(server.NewRegistry(), engine.Config{}))
	defer ts.Close()
	huge := dataset.Instance{1: math.MaxFloat64, 2: math.MaxFloat64}
	postV2(t, ts.URL, "huge", core.NewSummarizer(testSalt).SummarizePPS(0, huge, 1))

	resp, err := http.Get(ts.URL + "/v1/query?dataset=huge&q=sum&instances=0")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("overflowed sum answered %d, want 422", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type %q, want JSON", ct)
	}
	if e := decodeResult[api.ErrorResult](t, resp); !strings.Contains(e.Error, "sum over instances [0]") || !strings.Contains(e.Error, "+Inf") {
		t.Errorf("error body %+v, want the non-finite refusal naming the query and the instance", e)
	}
}
