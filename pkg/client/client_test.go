package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs/trace"
	"repro/internal/server"
	"repro/pkg/api"
	"repro/pkg/client"
)

func testSummary(t *testing.T) *core.PPSSummary {
	t.Helper()
	in := dataset.Instance{}
	for i := 1; i <= 400; i++ {
		in[dataset.Key(i*2654435761)] = float64(1 + i%37)
	}
	return core.NewSummarizer(2011).SummarizePPSExpectedSize(0, in, 100)
}

// TestClientWireV2AgainstV2Server: a v2-preferring client posts binary,
// the server acknowledges wire 2, the negotiated fetch returns a summary
// with the original query bits, and no fallback happens.
func TestClientWireV2AgainstV2Server(t *testing.T) {
	ts := httptest.NewServer(server.New(server.NewRegistry(), engine.Config{}))
	defer ts.Close()
	sum := testSummary(t)
	c := client.New(ts.URL, ts.Client(), client.WithWireVersion(2))
	ctx := context.Background()

	post, err := c.PostSummary(ctx, "flows", sum)
	if err != nil {
		t.Fatal(err)
	}
	if post.Wire != 2 || post.Size != sum.Size() {
		t.Fatalf("PostResult = %+v, want wire 2, size %d", post, sum.Size())
	}
	if c.WireVersion() != 2 {
		t.Fatalf("WireVersion = %d after a successful v2 post, want 2", c.WireVersion())
	}

	dec, err := c.FetchDecodedSummary(ctx, "flows", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := dec.(*core.PPSSummary)
	if !ok {
		t.Fatalf("decoded %T, want *core.PPSSummary", dec)
	}
	if got.SubsetSum(nil) != sum.SubsetSum(nil) {
		t.Fatalf("fetched sum %v != %v", got.SubsetSum(nil), sum.SubsetSum(nil))
	}

	// FetchSummary stays JSON for compatibility.
	raw, err := c.FetchSummary(ctx, "flows", 0)
	if err != nil {
		t.Fatal(err)
	}
	var head struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(raw, &head); err != nil || head.Version != 1 {
		t.Fatalf("FetchSummary returned non-v1-JSON (version %d, err %v)", head.Version, err)
	}
}

// v1OnlyHandler mimics a pre-v2 summary server: it parses every posted
// body as JSON and answers non-JSON with the given status and error text
// — 415 from a version-negotiating build, or the historical 400 decode
// error from a pre-negotiation build. The transparent fallback must
// handle both.
func v1OnlyHandler(rejectStatus int, rejectError string) (http.Handler, *int) {
	posts := new(int)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/summaries", func(w http.ResponseWriter, r *http.Request) {
		*posts++
		body, _ := io.ReadAll(r.Body)
		var head struct {
			Version int    `json:"version"`
			Kind    string `json:"kind"`
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.Unmarshal(body, &head); err != nil || head.Version != 1 {
			w.WriteHeader(rejectStatus)
			_ = json.NewEncoder(w).Encode(api.ErrorResult{Error: rejectError, Supported: []int{1}})
			return
		}
		w.WriteHeader(http.StatusCreated)
		_ = json.NewEncoder(w).Encode(api.PostResult{Dataset: "flows", Kind: head.Kind, Wire: 1})
	})
	return mux, posts
}

// TestClientFallsBackToV1: against a server that rejects binary posts —
// with 415 (negotiating build) or a 400 decode error (pre-negotiation
// build) — the client retries as v1 JSON transparently, reports the
// downgrade through WireVersion, and — the sticky part — posts v1
// directly from then on.
func TestClientFallsBackToV1(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
		errMsg string
	}{
		{"415 negotiating", http.StatusUnsupportedMediaType, "unknown wire version"},
		{"400 pre-negotiation", http.StatusBadRequest, `core: decoding summary: invalid character '\xcb'`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, posts := v1OnlyHandler(tc.status, tc.errMsg)
			ts := httptest.NewServer(h)
			defer ts.Close()
			sum := testSummary(t)
			c := client.New(ts.URL, ts.Client(), client.WithWireVersion(2))
			ctx := context.Background()

			post, err := c.PostSummary(ctx, "flows", sum)
			if err != nil {
				t.Fatalf("post against v1-only server: %v", err)
			}
			if post.Wire != 1 {
				t.Fatalf("PostResult.Wire = %d, want 1 after fallback", post.Wire)
			}
			if *posts != 2 {
				t.Fatalf("first post took %d requests, want 2 (v2 attempt + v1 retry)", *posts)
			}
			if c.WireVersion() != 1 {
				t.Fatalf("WireVersion = %d after fallback, want 1", c.WireVersion())
			}

			if _, err := c.PostSummary(ctx, "flows", sum); err != nil {
				t.Fatal(err)
			}
			if *posts != 3 {
				t.Fatalf("second post took %d total requests, want 3 (fallback is sticky)", *posts)
			}
		})
	}
}

// TestClientNoRetryOnUnrelated400: a rejection that is not a decode
// failure — the 413 of an oversized body, the 400 of a missing parameter —
// must surface as-is: no doomed v1 re-upload, no downgrade.
func TestClientNoRetryOnUnrelated400(t *testing.T) {
	for _, rejection := range []struct {
		status  int
		message string
	}{
		{http.StatusRequestEntityTooLarge, "server: reading summary body: http: request body too large"},
		{http.StatusBadRequest, "server: invalid dataset name"},
	} {
		h, posts := v1OnlyHandler(rejection.status, rejection.message)
		ts := httptest.NewServer(h)
		c := client.New(ts.URL, ts.Client(), client.WithWireVersion(2))

		_, err := c.PostSummary(context.Background(), "flows", testSummary(t))
		ts.Close()
		var se *client.StatusError
		if !errors.As(err, &se) || se.Status != rejection.status || se.Message != rejection.message {
			t.Fatalf("got %v, want the original %d %q", err, rejection.status, rejection.message)
		}
		if *posts != 1 {
			t.Fatalf("%d: took %d requests, want 1 (no retry on a non-format rejection)", rejection.status, *posts)
		}
		if c.WireVersion() != 2 {
			t.Fatalf("%d: WireVersion = %d, want 2 (no downgrade)", rejection.status, c.WireVersion())
		}
	}
}

// TestClientRawFutureVersionBytes: pre-encoded bytes of an unregistered
// binary version are posted under their own x-summary-v<N> content type,
// so a negotiating server answers the contractual 415 with the supported
// list instead of a parse-binary-as-JSON 400.
func TestClientRawFutureVersionBytes(t *testing.T) {
	ts := httptest.NewServer(server.New(server.NewRegistry(), engine.Config{}))
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	_, err := c.PostSummary(context.Background(), "flows", []byte{0xCB, 0x53, 0x07, 0x01, 0x00})
	var se *client.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusUnsupportedMediaType {
		t.Fatalf("got %v, want 415", err)
	}
	if len(se.Supported) == 0 {
		t.Fatalf("415 carried no supported versions: %+v", se)
	}
}

// TestClientNoFallbackOnRealErrors: a rejection that is not about the
// wire format (409 incompatible) must surface as-is without downgrading.
func TestClientNoFallbackOnRealErrors(t *testing.T) {
	ts := httptest.NewServer(server.New(server.NewRegistry(), engine.Config{}))
	defer ts.Close()
	sum := testSummary(t)
	c := client.New(ts.URL, ts.Client(), client.WithWireVersion(2))
	ctx := context.Background()
	if _, err := c.PostSummary(ctx, "flows", sum); err != nil {
		t.Fatal(err)
	}
	// A different salt conflicts with the stored dataset: 409.
	other := core.NewSummarizer(999).SummarizePPS(1, dataset.Instance{1: 5}, 2)
	_, err := c.PostSummary(ctx, "flows", other)
	var se *client.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusConflict {
		t.Fatalf("conflicting post: got %v, want 409 StatusError", err)
	}
	if c.WireVersion() != 2 {
		t.Fatalf("WireVersion = %d after a 409, want 2 (no downgrade)", c.WireVersion())
	}
}

// TestClientFallbackSharesCorrelation: the v2 attempt and its v1
// fallback retry are one logical operation, so they must arrive with the
// same client-minted X-Request-ID and — when the caller's context
// carries a span — the same traceparent, keeping the pair correlated in
// server logs and traces.
func TestClientFallbackSharesCorrelation(t *testing.T) {
	h, _ := v1OnlyHandler(http.StatusUnsupportedMediaType, "unknown wire version")
	var rids, parents []string
	capture := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rids = append(rids, r.Header.Get("X-Request-ID"))
		parents = append(parents, r.Header.Get("traceparent"))
		h.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(capture)
	defer ts.Close()

	tr := trace.New(4)
	sp := tr.StartSpan("client.post", trace.SpanContext{})
	ctx := trace.ContextWithSpan(context.Background(), sp)

	c := client.New(ts.URL, ts.Client(), client.WithWireVersion(2))
	if _, err := c.PostSummary(ctx, "flows", testSummary(t)); err != nil {
		t.Fatalf("post against v1-only server: %v", err)
	}
	sp.Finish()

	if len(rids) != 2 {
		t.Fatalf("saw %d requests, want 2 (v2 attempt + v1 retry)", len(rids))
	}
	if rids[0] == "" || rids[0] != rids[1] {
		t.Fatalf("X-Request-ID not shared across attempts: %q vs %q", rids[0], rids[1])
	}
	want := sp.Context().Traceparent()
	if parents[0] != want || parents[1] != want {
		t.Fatalf("traceparent not shared across attempts: %q / %q, want %q",
			parents[0], parents[1], want)
	}

	// A second operation must NOT reuse the first one's request ID.
	if _, err := c.PostSummary(ctx, "flows", testSummary(t)); err != nil {
		t.Fatal(err)
	}
	if rids[2] == rids[0] {
		t.Fatalf("distinct operations share request ID %q", rids[2])
	}
}
