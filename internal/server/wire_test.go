package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/pkg/api"
)

// wireFixture returns a server URL, its close func, and a PPS summary to
// post at it.
func wireFixture(t *testing.T) (string, *core.PPSSummary, func()) {
	t.Helper()
	ts := httptest.NewServer(server.New(server.NewRegistry(), engine.Config{}))
	sites := fixture(800)
	summ := core.NewSummarizer(testSalt)
	return ts.URL, summ.SummarizePPSExpectedSize(0, sites[0], 120), ts.Close
}

func postBody(t *testing.T, url, contentType string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeResult[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return out
}

// TestPostSummaryNegotiation: POST /v1/summaries accepts the same summary
// as v1 JSON and v2 binary — by declared Content-Type and by sniffing —
// and the stored results answer queries with identical bits.
func TestPostSummaryNegotiation(t *testing.T) {
	url, sum, closeSrv := wireFixture(t)
	defer closeSrv()

	v1, err := core.EncodeSummary(sum, 1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := core.EncodeSummary(sum, 2)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, dataset, ct string
		body              []byte
		wantWire          int
	}{
		{"v1 declared", "dsv1", "application/json", v1, 1},
		{"v2 declared", "dsv2", core.ContentTypeV2, v2, 2},
		{"v1 sniffed", "dsv1sniff", "application/x-www-form-urlencoded", v1, 1},
		{"v2 sniffed", "dsv2sniff", "", v2, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postBody(t, url+"/v1/summaries?dataset="+tc.dataset, tc.ct, tc.body)
			if resp.StatusCode != http.StatusCreated {
				body, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			post := decodeResult[api.PostResult](t, resp)
			if post.Wire != tc.wantWire || post.Size != sum.Size() {
				t.Fatalf("api.PostResult = %+v, want wire %d, size %d", post, tc.wantWire, sum.Size())
			}
		})
	}

	// The stored summaries are the same object regardless of transport:
	// single-instance sum queries answer bit-identically.
	var sums [2]float64
	for i, ds := range []string{"dsv1", "dsv2"} {
		resp, err := http.Get(url + "/v1/query?dataset=" + ds + "&q=sum&instances=0")
		if err != nil {
			t.Fatal(err)
		}
		res := decodeResult[api.SumResult](t, resp)
		sums[i] = res.Sum
	}
	if sums[0] != sums[1] || sums[0] != sum.SubsetSum(nil) {
		t.Fatalf("v1-posted sum %v, v2-posted sum %v, in-process %v — must be bit-identical",
			sums[0], sums[1], sum.SubsetSum(nil))
	}
}

// TestPostSummaryUnknownVersion: unknown wire versions — whether declared
// in the Content-Type or carried inside a JSON body — answer 415 with a
// JSON error listing the supported versions.
func TestPostSummaryUnknownVersion(t *testing.T) {
	url, sum, closeSrv := wireFixture(t)
	defer closeSrv()
	v1, _ := core.EncodeSummary(sum, 1)

	for _, tc := range []struct {
		name, ct string
		body     []byte
	}{
		{"declared v9", "application/x-summary-v9", v1},
		{"json body version 9", "application/json", []byte(`{"version":9,"kind":"pps","tau":1}`)},
		{"binary future version", "", []byte{0xCB, 0x53, 0x07, 0x01, 0x00}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := postBody(t, url+"/v1/summaries?dataset=x", tc.ct, tc.body)
			if resp.StatusCode != http.StatusUnsupportedMediaType {
				t.Fatalf("status %d, want 415", resp.StatusCode)
			}
			e := decodeResult[api.ErrorResult](t, resp)
			if e.Error == "" || !reflect.DeepEqual(e.Supported, core.SupportedWireVersions()) {
				t.Fatalf("api.ErrorResult = %+v, want error text and supported %v",
					e, core.SupportedWireVersions())
			}
		})
	}
}

// TestPostSummaryRejectsTrailingData: a post carrying bytes beyond one
// summary — a second concatenated summary, or garbage — is a 400 in both
// wire formats, never a silent partial accept.
func TestPostSummaryRejectsTrailingData(t *testing.T) {
	url, sum, closeSrv := wireFixture(t)
	defer closeSrv()
	for _, tc := range []struct {
		name, ct string
		version  int
	}{
		{"v2 declared", core.ContentTypeV2, 2},
		{"v2 sniffed", "", 2},
		{"v1 declared", "application/json", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, err := core.EncodeSummary(sum, tc.version)
			if err != nil {
				t.Fatal(err)
			}
			double := append(append([]byte{}, data...), data...)
			resp := postBody(t, url+"/v1/summaries?dataset=trail", tc.ct, double)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("concatenated summaries: status %d, want 400", resp.StatusCode)
			}
		})
	}
}

// TestPostSummaryContentTypeMismatch: a Content-Type that names a wire
// version is binding. A body in the other format is a 400, never sniffed
// into an accept.
func TestPostSummaryContentTypeMismatch(t *testing.T) {
	url, sum, closeSrv := wireFixture(t)
	defer closeSrv()
	v1, _ := core.EncodeSummary(sum, 1)
	v2, _ := core.EncodeSummary(sum, 2)
	for _, tc := range []struct {
		name, ct string
		body     []byte
	}{
		{"v2 declared, JSON body", core.ContentTypeV2, v1},
		{"JSON declared, v2 body", core.ContentTypeJSON, v2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := postBody(t, url+"/v1/summaries?dataset=mismatch", tc.ct, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			if e := decodeResult[api.ErrorResult](t, resp); e.Error == "" {
				t.Fatal("400 carried no error text")
			}
		})
	}
}

// TestFetchSummaryNegotiation: GET /v1/summaries honors Accept — JSON by
// default, v2 on request — with an explicit Content-Type (charset
// included for JSON) and a wire-version header, and both representations
// decode to summaries with identical query bits.
func TestFetchSummaryNegotiation(t *testing.T) {
	url, sum, closeSrv := wireFixture(t)
	defer closeSrv()
	v1, _ := core.EncodeSummary(sum, 1)
	resp := postBody(t, url+"/v1/summaries?dataset=ds", "application/json", v1)
	resp.Body.Close()

	fetch := func(accept string) *http.Response {
		req, err := http.NewRequest(http.MethodGet, url+"/v1/summaries?dataset=ds&instance=0", nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	for _, tc := range []struct {
		name, accept, wantCT, wantVer string
	}{
		{"default json", "", "application/json; charset=utf-8", "1"},
		{"wildcard", "*/*", "application/json; charset=utf-8", "1"},
		{"explicit json", "application/json", "application/json; charset=utf-8", "1"},
		{"v2", core.ContentTypeV2, core.ContentTypeV2, "2"},
		{"v2 in a list", "application/x-summary-v2, application/json;q=0.5", core.ContentTypeV2, "2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := fetch(tc.accept)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != tc.wantCT {
				t.Errorf("Content-Type %q, want %q", ct, tc.wantCT)
			}
			if v := resp.Header.Get("X-Summary-Wire-Version"); v != tc.wantVer {
				t.Errorf("X-Summary-Wire-Version %q, want %q", v, tc.wantVer)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := core.DecodeSummary(body)
			if err != nil {
				t.Fatalf("decoding fetched summary: %v", err)
			}
			if got, want := dec.(*core.PPSSummary).SubsetSum(nil), sum.SubsetSum(nil); got != want {
				t.Fatalf("fetched summary sum %v != %v", got, want)
			}
		})
	}

	t.Run("unknown version 415", func(t *testing.T) {
		resp := fetch("application/x-summary-v9")
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("status %d, want 415", resp.StatusCode)
		}
		e := decodeResult[api.ErrorResult](t, resp)
		if !reflect.DeepEqual(e.Supported, core.SupportedWireVersions()) {
			t.Fatalf("supported %v, want %v", e.Supported, core.SupportedWireVersions())
		}
	})
	t.Run("foreign type 406", func(t *testing.T) {
		resp := fetch("text/html")
		if resp.StatusCode != http.StatusNotAcceptable {
			t.Fatalf("status %d, want 406", resp.StatusCode)
		}
		e := decodeResult[api.ErrorResult](t, resp)
		if !reflect.DeepEqual(e.Supported, core.SupportedWireVersions()) {
			t.Fatalf("supported %v, want %v", e.Supported, core.SupportedWireVersions())
		}
	})
}

// TestHealthWireVersions: the health probe advertises the wire versions.
func TestHealthWireVersions(t *testing.T) {
	url, _, closeSrv := wireFixture(t)
	defer closeSrv()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr := decodeResult[api.HealthResult](t, resp)
	if hr.Status != "ok" || !reflect.DeepEqual(hr.WireVersions, core.SupportedWireVersions()) {
		t.Fatalf("api.HealthResult = %+v, want ok with wire versions %v", hr, core.SupportedWireVersions())
	}
}
