// Package client is a thin Go client for the summary server (summaryd).
//
// It speaks the v1 HTTP API: post summaries (core summary values travel in
// the compact v2 binary wire format; pre-encoded bytes of either format
// pass through for the server to sniff), ingest raw CSV/ndjson pair
// streams (summarized server-side), and run distinct / max-dominance /
// quantile / sum queries over any stored subset. Response types live in
// pkg/api and are shared with internal/server, so client and server
// cannot drift.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/obs/trace"
	"repro/pkg/api"
)

// Client talks to one summaryd instance.
type Client struct {
	base string
	hc   *http.Client
}

// New returns a client for the server at base (e.g. "http://127.0.0.1:8080").
// A nil http.Client uses http.DefaultClient.
func New(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// BaseURL returns the server URL the client was built with.
func (c *Client) BaseURL() string { return c.base }

// StatusError is the error the client returns for a non-2xx response. It
// carries the HTTP status code and, on wire-format negotiation failures,
// the versions the server advertised.
type StatusError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's error text (or the raw body when the server
	// sent no structured error).
	Message string
	// Supported lists the wire versions the server speaks, when it said.
	Supported []int
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("client: %s (HTTP %d)", e.Message, e.Status)
}

// do issues a request and decodes the JSON response into out, mapping
// non-2xx responses to *StatusError carrying the server's message.
func (c *Client) do(req *http.Request, out any) error {
	body, err := c.doRaw(req)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	return nil
}

// doRaw issues a request and returns the raw 2xx body, mapping non-2xx
// responses to *StatusError.
func (c *Client) doRaw(req *http.Request) ([]byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("client: reading response: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		se := &StatusError{Status: resp.StatusCode, Message: strings.TrimSpace(string(body))}
		var e api.ErrorResult
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			se.Message, se.Supported = e.Error, e.Supported
		}
		return nil, se
	}
	return body, nil
}

// injectTrace propagates a span carried by ctx (trace.ContextWithSpan)
// onto the outgoing request as a W3C traceparent header, so a traced
// server continues the caller's trace instead of minting a fresh one.
// Without a span in the context this is a no-op.
func injectTrace(ctx context.Context, req *http.Request) {
	if sp := trace.SpanFromContext(ctx); sp != nil {
		req.Header.Set("traceparent", sp.Context().Traceparent())
	}
}

func (c *Client) get(ctx context.Context, path string, q url.Values, out any) error {
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	// Every structured endpoint answers JSON; the summary fetch does so
	// because it is asked to (FetchSummary returns v1 JSON).
	req.Header.Set("Accept", core.ContentTypeJSON)
	injectTrace(ctx, req)
	return c.do(req, out)
}

func (c *Client) post(ctx context.Context, path string, q url.Values, contentType string, body io.Reader, out any) error {
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	injectTrace(ctx, req)
	return c.do(req, out)
}

// Health probes GET /healthz, returning the server's liveness payload:
// status, registered-dataset count, supported wire versions, the ingest
// engine's accumulated pair and ingest counts (Engine), and —
// when the server runs with a durability directory — the store's WAL and
// snapshot state (Store).
func (c *Client) Health(ctx context.Context) (api.HealthResult, error) {
	var out api.HealthResult
	err := c.get(ctx, "/healthz", nil, &out)
	return out, err
}

// Datasets lists the registered datasets.
func (c *Client) Datasets(ctx context.Context) ([]api.DatasetInfo, error) {
	var out []api.DatasetInfo
	err := c.get(ctx, "/v1/datasets", nil, &out)
	return out, err
}

// PostSummary stores a summary under the named dataset. The summary is
// either a core summary value (a core.Summary: pps, set or bottom-k),
// posted in the v2 binary format, or pre-encoded wire bytes ([]byte /
// json.RawMessage, either format), posted as they are for the server to
// sniff.
func (c *Client) PostSummary(ctx context.Context, dataset string, summary any) (api.PostResult, error) {
	var out api.PostResult
	var (
		body []byte
		ct   string
	)
	switch v := summary.(type) {
	case []byte:
		body, ct = v, "application/octet-stream" // outside the wire vocabulary: sniffed
	case json.RawMessage:
		body, ct = v, "application/octet-stream"
	case core.Summary:
		var err error
		if body, err = core.EncodeSummary(v, 2); err != nil {
			return out, fmt.Errorf("client: encoding summary: %w", err)
		}
		ct = core.ContentTypeV2
	default:
		return out, fmt.Errorf("client: cannot post a %T as a summary", summary)
	}
	err := c.post(ctx, "/v1/summaries", url.Values{"dataset": {dataset}}, ct, bytes.NewReader(body), &out)
	return out, err
}

// FetchSummary retrieves one stored summary in v1 JSON wire form; decode
// it with core.DecodeSummary. FetchDecodedSummary fetches the compact v2
// form and decodes it in one step.
func (c *Client) FetchSummary(ctx context.Context, dataset string, instance int) (json.RawMessage, error) {
	q := url.Values{"dataset": {dataset}, "instance": {strconv.Itoa(instance)}}
	var out json.RawMessage
	err := c.get(ctx, "/v1/summaries", q, &out)
	return out, err
}

// FetchDecodedSummary retrieves one stored summary in the v2 binary wire
// format and decodes it.
func (c *Client) FetchDecodedSummary(ctx context.Context, dataset string, instance int) (core.Summary, error) {
	q := url.Values{"dataset": {dataset}, "instance": {strconv.Itoa(instance)}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/summaries?"+q.Encode(), nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", core.ContentTypeV2)
	injectTrace(ctx, req)
	body, err := c.doRaw(req)
	if err != nil {
		return nil, err
	}
	return core.DecodeSummary(body)
}

// IngestOptions parameterizes a raw-stream ingest. Exactly the fields of
// the selected kind are consulted: Tau for "pps", K and Family for
// "bottomk", P for "set".
type IngestOptions struct {
	Dataset  string
	Instance int
	// Kind is "pps", "bottomk" or "set".
	Kind string
	// Format is "csv" or "ndjson" (default ndjson).
	Format string
	// Salt defines the randomization when the dataset does not exist
	// yet; an existing dataset pins it.
	Salt    uint64
	SaltSet bool
	Tau     float64
	K       int
	Family  string
	P       float64
}

// Ingest streams a raw pair stream to the server, which summarizes it on
// arrival and registers the result.
func (c *Client) Ingest(ctx context.Context, opts IngestOptions, stream io.Reader) (api.PostResult, error) {
	q := url.Values{
		"dataset":  {opts.Dataset},
		"instance": {strconv.Itoa(opts.Instance)},
		"kind":     {opts.Kind},
	}
	if opts.Format != "" {
		q.Set("format", opts.Format)
	}
	if opts.SaltSet {
		q.Set("salt", strconv.FormatUint(opts.Salt, 10))
	}
	switch opts.Kind {
	case "pps":
		q.Set("tau", strconv.FormatFloat(opts.Tau, 'g', -1, 64))
	case "bottomk":
		q.Set("k", strconv.Itoa(opts.K))
		if opts.Family != "" {
			q.Set("family", opts.Family)
		}
	case "set":
		q.Set("p", strconv.FormatFloat(opts.P, 'g', -1, 64))
	}
	ct := "application/x-ndjson"
	if opts.Format == "csv" {
		ct = "text/csv"
	}
	var out api.PostResult
	err := c.post(ctx, "/v1/ingest", q, ct, stream, &out)
	return out, err
}

// MultiIngestOptions parameterizes a one-pass multi-instance ingest.
// Exactly the fields of the selected kind are consulted: Taus for "pps",
// K and Family for "bottomk".
type MultiIngestOptions struct {
	Dataset string
	// Instances lists the instance IDs the combined stream populates; the
	// body's instance column must only use these IDs.
	Instances []int
	// Kind is "pps" or "bottomk".
	Kind string
	// Format is "csv" or "ndjson" (default ndjson).
	Format string
	// Salt defines the randomization when the dataset does not exist
	// yet; an existing dataset pins it.
	Salt    uint64
	SaltSet bool
	// Taus holds the PPS thresholds: one value shared by every instance,
	// or one per instance.
	Taus   []float64
	K      int
	Family string
}

// IngestMulti streams a combined (key, instance, value) stream to the
// server, which summarizes every listed instance in one scan, each in its
// own in-line stream, and registers the results. The server refuses a
// list of more than 1024 instances with a 400.
func (c *Client) IngestMulti(ctx context.Context, opts MultiIngestOptions, stream io.Reader) (api.MultiPostResult, error) {
	q := url.Values{
		"dataset":   {opts.Dataset},
		"instances": {instanceList(opts.Instances)},
		"kind":      {opts.Kind},
	}
	if opts.Format != "" {
		q.Set("format", opts.Format)
	}
	if opts.SaltSet {
		q.Set("salt", strconv.FormatUint(opts.Salt, 10))
	}
	switch opts.Kind {
	case "pps":
		taus := make([]string, len(opts.Taus))
		for i, tau := range opts.Taus {
			taus[i] = strconv.FormatFloat(tau, 'g', -1, 64)
		}
		q.Set("tau", strings.Join(taus, ","))
	case "bottomk":
		q.Set("k", strconv.Itoa(opts.K))
		if opts.Family != "" {
			q.Set("family", opts.Family)
		}
	}
	ct := "application/x-ndjson"
	if opts.Format == "csv" {
		ct = "text/csv"
	}
	var out api.MultiPostResult
	err := c.post(ctx, "/v1/ingest/multi", q, ct, stream, &out)
	return out, err
}

func instanceList(instances []int) string {
	parts := make([]string, len(instances))
	for i, n := range instances {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ",")
}

// Distinct estimates the number of distinct keys across the given set-
// summary instances (all stored instances when none are given).
func (c *Client) Distinct(ctx context.Context, dataset string, instances ...int) (api.DistinctResult, error) {
	q := url.Values{"dataset": {dataset}, "q": {"distinct"}}
	if len(instances) > 0 {
		q.Set("instances", instanceList(instances))
	}
	var out api.DistinctResult
	err := c.get(ctx, "/v1/query", q, &out)
	return out, err
}

// MaxDominance estimates Σ_h max(v_i(h), v_j(h)) over two stored PPS
// summaries.
func (c *Client) MaxDominance(ctx context.Context, dataset string, i, j int) (api.DominanceResult, error) {
	q := url.Values{
		"dataset":   {dataset},
		"q":         {"maxdominance"},
		"instances": {instanceList([]int{i, j})},
	}
	var out api.DominanceResult
	err := c.get(ctx, "/v1/query", q, &out)
	return out, err
}

// Quantile estimates the l-th largest value (1-based; 1 = max) of one key
// across the given PPS-summary instances (all stored instances when none
// are given).
func (c *Client) Quantile(ctx context.Context, dataset string, key uint64, l int, instances ...int) (api.QuantileResult, error) {
	q := url.Values{
		"dataset": {dataset},
		"q":       {"quantile"},
		"key":     {strconv.FormatUint(key, 10)},
		"l":       {strconv.Itoa(l)},
	}
	if len(instances) > 0 {
		q.Set("instances", instanceList(instances))
	}
	var out api.QuantileResult
	err := c.get(ctx, "/v1/query", q, &out)
	return out, err
}

// Sum estimates one stored instance's total: the subset-sum estimate of a
// weighted summary, or the cardinality estimate of a set summary.
func (c *Client) Sum(ctx context.Context, dataset string, instance int) (api.SumResult, error) {
	q := url.Values{
		"dataset":   {dataset},
		"q":         {"sum"},
		"instances": {strconv.Itoa(instance)},
	}
	var out api.SumResult
	err := c.get(ctx, "/v1/query", q, &out)
	return out, err
}
