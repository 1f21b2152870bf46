// Package client is a thin Go client for the summary server (summaryd).
//
// It speaks the v1 HTTP API: post summaries in either summary wire format
// (v1 JSON by default; opt into the compact v2 binary format with
// WithWireVersion(2)), ingest raw CSV/ndjson pair streams (summarized
// server-side), and run distinct / max-dominance / quantile / sum queries
// over any stored subset. Response types live in pkg/api and are shared
// with internal/server, so client and server cannot drift.
//
// Version negotiation is transparent: a v2-configured client that meets a
// server without v2 support falls back to v1 on the first rejected post
// and stays on v1 for the rest of its life — new clients work against old
// servers with one extra round trip, total.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs/trace"
	"repro/pkg/api"
)

// Client talks to one summaryd instance.
type Client struct {
	base string
	hc   *http.Client
	// wire is the preferred summary wire version for posts and fetches
	// (0 or 1 = v1 JSON).
	wire int
	// fellBack flips to true the first time the server rejects the
	// preferred version; every later exchange goes straight to v1.
	fellBack atomic.Bool
}

// Option configures a Client at construction.
type Option func(*Client)

// WithWireVersion selects the summary wire format the client prefers when
// posting and fetching summaries: 1 (the default) is the JSON format, 2
// the compact binary format. The version must be registered in this
// build (core.SupportedWireVersions); unknown versions panic, like an
// invalid engine config — a construction-time misconfiguration. Servers
// that do not speak the preferred version are handled transparently: see
// the package comment on fallback.
func WithWireVersion(v int) Option {
	if _, err := core.CodecByVersion(v); err != nil {
		panic(err)
	}
	return func(c *Client) { c.wire = v }
}

// New returns a client for the server at base (e.g. "http://127.0.0.1:8080").
// A nil http.Client uses http.DefaultClient.
func New(base string, hc *http.Client, opts ...Option) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	c := &Client{base: strings.TrimRight(base, "/"), hc: hc, wire: 1}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// WireVersion reports the wire version the client currently uses for
// summary posts: the configured preference, or 1 after a fallback.
func (c *Client) WireVersion() int {
	if c.wire <= 1 || c.fellBack.Load() {
		return 1
	}
	return c.wire
}

// BaseURL returns the server URL the client was built with.
func (c *Client) BaseURL() string { return c.base }

// StatusError is the error the client returns for a non-2xx response. It
// carries the HTTP status code and, on wire-format negotiation failures,
// the versions the server advertised — what the transparent fallback (and
// any caller-side negotiation) dispatches on.
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
	body, _, err := c.doRaw(req)
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

// doRaw issues a request and returns the raw 2xx body and its content
// type, mapping non-2xx responses to *StatusError.
func (c *Client) doRaw(req *http.Request) (body []byte, contentType string, err error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", fmt.Errorf("client: reading response: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		se := &StatusError{Status: resp.StatusCode, Message: strings.TrimSpace(string(body))}
		var e api.ErrorResult
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			se.Message, se.Supported = e.Error, e.Supported
		}
		return nil, "", se
	}
	return body, resp.Header.Get("Content-Type"), nil
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
	// Every structured endpoint answers JSON; saying so keeps a server
	// running a non-JSON default wire format (-wire 2) from ever sending
	// binary where a JSON result type is expected.
	req.Header.Set("Accept", "application/json")
	injectTrace(ctx, req)
	return c.do(req, out)
}

func (c *Client) post(ctx context.Context, path string, q url.Values, contentType string, body io.Reader, out any) error {
	return c.postHdr(ctx, path, q, contentType, nil, body, out)
}

// postHdr is post with extra headers: the summary-post path uses it to
// thread one X-Request-ID through the preferred-wire attempt and its v1
// fallback retry.
func (c *Client) postHdr(ctx context.Context, path string, q url.Values, contentType string, hdr http.Header, body io.Reader, out any) error {
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, body)
	if err != nil {
		return err
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
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

// PostSummary stores a summary under the named dataset. The summary is any
// core summary value (*core.PPSSummary, *core.SetSummary,
// *core.BottomKSummary) or pre-encoded wire bytes ([]byte /
// json.RawMessage, either wire format — the content type is sniffed).
//
// A client configured with WithWireVersion(2) encodes core summary values
// in the binary format. When the server rejects it as unsupported — 415
// from a negotiating server, 400 from a pre-negotiation server that
// failed to parse binary as JSON — the post is retried once as v1 JSON,
// and a successful retry pins the client to v1 so later posts skip the
// doomed attempt.
//
// All attempts of one PostSummary call carry the same client-minted
// X-Request-ID (and, when the context carries a span, the same
// traceparent), so a fallback retry correlates with the attempt it
// replaces in server logs and traces.
func (c *Client) PostSummary(ctx context.Context, dataset string, summary any) (api.PostResult, error) {
	q := url.Values{"dataset": {dataset}}
	hdr := http.Header{"X-Request-Id": {newRequestID()}}
	var out api.PostResult

	// Pre-encoded bytes pass through untranscoded.
	if raw, ok := rawWire(summary); ok {
		err := c.postHdr(ctx, "/v1/summaries", q, sniffContentType(raw), hdr, bytes.NewReader(raw), &out)
		return out, err
	}

	var triedPreferred bool
	if v := c.WireVersion(); v > 1 {
		if sum, ok := summary.(core.Summary); ok {
			codec, err := core.CodecByVersion(v)
			if err != nil {
				return out, err
			}
			body, err := codec.Encode(sum)
			if err != nil {
				return out, fmt.Errorf("client: encoding summary: %w", err)
			}
			err = c.postHdr(ctx, "/v1/summaries", q, codec.ContentType(), hdr, bytes.NewReader(body), &out)
			if err == nil || !wireUnsupported(err) {
				return out, err
			}
			triedPreferred = true // fall through to a one-time v1 retry
		}
	}

	body, err := json.Marshal(summary)
	if err != nil {
		return out, fmt.Errorf("client: encoding summary: %w", err)
	}
	err = c.postHdr(ctx, "/v1/summaries", q, "application/json", hdr, bytes.NewReader(body), &out)
	if triedPreferred && err == nil {
		// The v1 retry succeeded where the preferred version was refused:
		// the rejection really was about the format (not, say, a bad
		// dataset), so pin v1 and skip the doomed attempt from now on.
		c.fellBack.Store(true)
	}
	return out, err
}

// rawWire extracts pre-encoded wire bytes from a PostSummary argument.
func rawWire(summary any) ([]byte, bool) {
	switch v := summary.(type) {
	case []byte:
		return v, true
	case json.RawMessage:
		return v, true
	}
	return nil, false
}

// sniffContentType types pre-encoded wire bytes by their leading bytes:
// the binary magic marks a binary payload — named by its version even
// when this build does not register it, so the server answers the
// contractual 415 with supported_versions instead of a confusing
// parse-binary-as-JSON 400 — and anything else is JSON.
func sniffContentType(raw []byte) string {
	if v, ok := core.SniffWireVersion(raw); ok && v != 1 {
		return fmt.Sprintf("application/x-summary-v%d", v)
	}
	return "application/json"
}

// wireUnsupported reports whether an error says the server cannot parse
// the posted wire format: 415 from a version-negotiating server, or a
// 400 decode failure from a pre-negotiation server that tried to parse
// binary as JSON. Other rejections (a 413 oversized body, a 400 for a
// missing parameter) would fail a v1 retry identically, so they don't
// trigger the fallback — the real error surfaces instead of being masked
// by a doomed re-upload.
func wireUnsupported(err error) bool {
	var se *StatusError
	if !errors.As(err, &se) {
		return false
	}
	if se.Status == http.StatusUnsupportedMediaType {
		return true
	}
	return se.Status == http.StatusBadRequest && strings.Contains(se.Message, "decoding")
}

// FetchSummary retrieves one stored summary in v1 JSON wire form; decode
// it with core.DecodeSummary. FetchDecodedSummary negotiates the
// configured wire version and decodes in one step.
func (c *Client) FetchSummary(ctx context.Context, dataset string, instance int) (json.RawMessage, error) {
	q := url.Values{"dataset": {dataset}, "instance": {strconv.Itoa(instance)}}
	var out json.RawMessage
	err := c.get(ctx, "/v1/summaries", q, &out)
	return out, err
}

// FetchDecodedSummary retrieves one stored summary and decodes it,
// negotiating the wire format through Accept: the client's preferred
// version first with JSON as the universal fallback, so old servers —
// which ignore Accept and answer JSON — work without a second round trip.
func (c *Client) FetchDecodedSummary(ctx context.Context, dataset string, instance int) (core.Summary, error) {
	q := url.Values{"dataset": {dataset}, "instance": {strconv.Itoa(instance)}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/summaries?"+q.Encode(), nil)
	if err != nil {
		return nil, err
	}
	accept := "application/json"
	if v := c.WireVersion(); v > 1 {
		if codec, err := core.CodecByVersion(v); err == nil {
			accept = codec.ContentType() + ", application/json;q=0.5"
		}
	}
	req.Header.Set("Accept", accept)
	injectTrace(ctx, req)
	body, _, err := c.doRaw(req)
	if err != nil {
		return nil, err
	}
	return core.DecodeSummary(body)
}

// newRequestID mints a client-side request ID: short, printable, and
// unique enough to correlate the at-most-two attempts of a single post.
func newRequestID() string {
	return "c-" + strconv.FormatUint(rand.Uint64(), 36)
}

// IngestOptions parameterizes a raw-stream ingest. Exactly the fields of
// the selected kind are consulted: Tau for "pps", K and Family for
// "bottomk", P for "set", K for "varopt".
type IngestOptions struct {
	Dataset  string
	Instance int
	// Kind is "pps", "bottomk", "set", or "varopt".
	Kind string
	// Format is "csv" or "ndjson" (default ndjson).
	Format string
	// Salt and Shared define the randomization when the dataset does not
	// exist yet; an existing dataset pins both.
	Salt    uint64
	SaltSet bool
	Shared  bool
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
		q.Set("shared", strconv.FormatBool(opts.Shared))
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
	case "varopt":
		q.Set("k", strconv.Itoa(opts.K))
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
	// Salt and Shared define the randomization when the dataset does not
	// exist yet; an existing dataset pins both.
	Salt    uint64
	SaltSet bool
	Shared  bool
	// Taus holds the PPS thresholds: one value shared by every instance,
	// or one per instance.
	Taus   []float64
	K      int
	Family string
}

// IngestMulti streams a combined (key, instance, value) stream to the
// server, which summarizes every listed instance in one scan through the
// engine's multi-instance pipeline and registers the results.
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
		q.Set("shared", strconv.FormatBool(opts.Shared))
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
