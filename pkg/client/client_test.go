package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
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

// TestClientWireV2AgainstV2Server: the client posts a summary value as v2
// binary, the server acknowledges wire 2, and the v2 fetch returns a
// summary with the original query bits.
func TestClientWireV2AgainstV2Server(t *testing.T) {
	ts := httptest.NewServer(server.New(server.NewRegistry(), engine.Config{}))
	defer ts.Close()
	sum := testSummary(t)
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	post, err := c.PostSummary(ctx, "flows", sum)
	if err != nil {
		t.Fatal(err)
	}
	if post.Wire != 2 || post.Size != sum.Size() {
		t.Fatalf("PostResult = %+v, want wire 2, size %d", post, sum.Size())
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

// TestClientRawFutureVersionBytes: pre-encoded bytes pass through for the
// server to sniff, so bytes of an unknown binary version get the
// contractual 415 with the supported list instead of a parse-binary-as-JSON
// 400.
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

// TestClientRawBytesKeepTheirFormat: pre-encoded bytes are stored as the
// wire version they carry — v1 JSON stays wire 1, v2 stays wire 2 — and a
// value that is neither bytes nor a summary is refused before any request.
func TestClientRawBytesKeepTheirFormat(t *testing.T) {
	ts := httptest.NewServer(server.New(server.NewRegistry(), engine.Config{}))
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()
	sum := testSummary(t)
	for want, dataset := range map[int]string{1: "json", 2: "binary"} {
		raw, err := core.EncodeSummary(sum, want)
		if err != nil {
			t.Fatal(err)
		}
		post, err := c.PostSummary(ctx, dataset, json.RawMessage(raw))
		if err != nil {
			t.Fatalf("raw v%d post: %v", want, err)
		}
		if post.Wire != want || post.Size != sum.Size() {
			t.Fatalf("raw v%d post: PostResult = %+v", want, post)
		}
	}
	if _, err := c.PostSummary(ctx, "flows", map[string]int{"version": 1}); err == nil {
		t.Fatal("posting a map succeeded")
	}
}

// TestClientNoFallbackOnRealErrors: a rejected post (409 incompatible)
// surfaces as a StatusError carrying the server's status.
func TestClientNoFallbackOnRealErrors(t *testing.T) {
	ts := httptest.NewServer(server.New(server.NewRegistry(), engine.Config{}))
	defer ts.Close()
	sum := testSummary(t)
	c := client.New(ts.URL, ts.Client())
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
}

// TestClientNoRetryOnUnrelated400: a rejection — the 413 of an oversized
// body, the 400 of a missing parameter — surfaces as-is after exactly one
// request: the client never re-uploads.
func TestClientNoRetryOnUnrelated400(t *testing.T) {
	for _, rejection := range []struct {
		status  int
		message string
	}{
		{http.StatusRequestEntityTooLarge, "server: reading summary body: http: request body too large"},
		{http.StatusBadRequest, "server: invalid dataset name"},
	} {
		posts := 0
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			posts++
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(rejection.status)
			_ = json.NewEncoder(w).Encode(api.ErrorResult{Error: rejection.message})
		}))
		c := client.New(ts.URL, ts.Client())

		_, err := c.PostSummary(context.Background(), "flows", testSummary(t))
		ts.Close()
		var se *client.StatusError
		if !errors.As(err, &se) || se.Status != rejection.status || se.Message != rejection.message {
			t.Fatalf("got %v, want the original %d %q", err, rejection.status, rejection.message)
		}
		if posts != 1 {
			t.Fatalf("%d: took %d requests, want 1 (no retry)", rejection.status, posts)
		}
	}
}
