package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs/trace"
	"repro/pkg/api"
)

// maxSummaryBody bounds a posted summary body. 64 MiB holds tens of
// millions of wire-format entries — far beyond any sensible summary (the
// whole point of summarization is that these are small).
const maxSummaryBody = 64 << 20

// Server is the HTTP face of a Registry. It is an http.Handler serving:
//
//	GET  /healthz              liveness probe (status, dataset count, wire versions)
//	GET  /v1/datasets          list registered datasets
//	GET  /v1/summaries         fetch one stored summary (Accept-negotiated wire form)
//	POST /v1/summaries         store a summary (v1 JSON or v2 binary, by Content-Type)
//	POST /v1/ingest            summarize a raw CSV/ndjson pair stream
//	POST /v1/ingest/multi      one-pass multi-instance ingest (instance column)
//	GET  /v1/query             estimate over a stored subset
//	GET  /metrics              Prometheus text exposition (served when observed)
//	GET  /debug/traces         recent completed traces (served when traced)
//
// Every error response is JSON: {"error": "..."}; wire-format negotiation
// failures (415/406) additionally list the supported versions.
type Server struct {
	reg         *Registry
	mux         *http.ServeMux
	storeStatus func() api.StoreStatus
	obs         *Observer
	tracer      *trace.Tracer
	// engine accumulates every raw ingest's counts for /healthz and the
	// metrics registry.
	engine engineTotals
}

// Option configures a Server at construction.
type Option func(*Server)

// WithStoreStatus adds durability reporting to /healthz: status is
// polled per probe and returned under the "store" key. summaryd passes
// the store's Status method when running with -data-dir; servers without
// durable storage omit the option and the key.
func WithStoreStatus(status func() api.StoreStatus) Option {
	return func(s *Server) { s.storeStatus = status }
}

// WithObserver instruments the server: every request flows through the
// observer's middleware (per-endpoint metrics, X-Request-ID assignment,
// structured request logs), the observer's registry gains the
// engine-totals and dataset series, and GET /metrics serves that registry
// in the Prometheus text exposition format. Every series exists from
// construction on, so no post, ingest or dataset adds one. Without this
// option the server is entirely unobserved — the in-process and test path
// pays nothing, not even a wrapper allocation per request, and /metrics
// is a 404. One observer serves one server.
func WithObserver(o *Observer) Option {
	return func(s *Server) { s.obs = o }
}

// WithTracer attaches a span recorder: the observer's middleware opens a
// root span per request (honoring an inbound traceparent header and
// emitting the response's next to X-Request-ID), handlers and the store
// hang child spans off it through the request context, and the
// recorder's ring of recent completed traces is served at
// GET /debug/traces. It requires WithObserver (New panics otherwise) —
// the middleware is where the root span lives. Without this option
// (summaryd -trace=false) tracing costs the middleware one nil check per
// request and zero allocations.
func WithTracer(t *trace.Tracer) Option {
	return func(s *Server) { s.tracer = t }
}

// New builds a server around a registry. The ingest path always runs the
// in-line engine (engine.Config{}), whose samplers also let the scanners
// reject pairs before parsing their values. cfg must describe that
// engine: one shard, no Async. New panics on any other config — a
// construction-time misconfiguration.
func New(reg *Registry, cfg engine.Config, opts ...Option) *Server {
	if cfg.NumShards() != 1 || cfg.Async {
		panic(fmt.Sprintf("server: ingest runs the in-line engine only, got engine config %+v", cfg))
	}
	s := &Server{reg: reg, mux: http.NewServeMux()}
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Status plus dataset count: load balancers probe liveness, and
		// operators get a one-number capacity read plus the wire-format
		// vocabulary for free. The engine block is the richer node-health
		// signal (pairs and ingests); a durable server additionally
		// reports its store: WAL extent, last snapshot, what recovery
		// replayed. Probes fire often, so the probe's allocations are
		// pinned (TestHealthzAllocs).
		hr := api.HealthResult{
			Status:       "ok",
			Datasets:     s.reg.count(),
			WireVersions: core.SupportedWireVersions(),
			Engine:       s.engineStatus(),
		}
		if s.storeStatus != nil {
			st := s.storeStatus()
			hr.Store = &st
		}
		writeJSON(w, http.StatusOK, hr)
	})
	s.mux.HandleFunc("GET /v1/datasets", s.handleDatasets)
	s.mux.HandleFunc("GET /v1/summaries", s.handleFetchSummary)
	s.mux.HandleFunc("POST /v1/summaries", s.handlePostSummary)
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest(false))
	s.mux.HandleFunc("POST /v1/ingest/multi", s.handleIngest(true))
	s.mux.HandleFunc("GET /v1/query", s.handleQuery)
	if s.tracer != nil {
		if s.obs == nil {
			panic("server: WithTracer requires WithObserver")
		}
		s.mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, s.tracer.Traces())
		})
	}
	if s.obs != nil {
		s.obs.bindServer(s)
		s.mux.Handle("GET /metrics", s.obs.reg.Handler())
	}
	return s
}

// ServeHTTP implements http.Handler. With an observer attached every
// request passes through its middleware; without one the mux is served
// directly — zero per-request overhead for unobserved servers.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.obs != nil {
		s.obs.intercept(s.mux, w, r)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// encodeJSON renders v as every JSON response is rendered.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// writeJSON encodes v before committing to a status: a value encoding/json
// refuses becomes a 500 with a JSON error body, not a 200 whose body stops
// where the encoder gave up. (A query answer that is ±Inf or NaN never gets
// here: answerQuery refuses it as a 422.)
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := encodeJSON(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = encodeJSON(api.ErrorResult{Error: "server: encoding response: " + err.Error()}) // a struct of strings always encodes
	}
	writeBody(w, status, body)
}

// writeBody sends an encoded JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", jsonContentType)
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// jsonContentType is the explicit content type of every JSON response,
// charset included so proxies and browsers never guess.
const jsonContentType = "application/json; charset=utf-8"

// errNotAcceptable reports an Accept header that names no representation
// the server can produce (HTTP 406). Unknown wire *versions* are the
// separate, more specific core.ErrUnknownVersion (HTTP 415).
var errNotAcceptable = errors.New("server: no acceptable summary representation")

// checkDatasetName rejects a missing or overlong dataset parameter up
// front, before any request body is read or summarized — the same
// reject-early convention as the randomization conflict checks.
// Registry.Put enforces the length bound again for library callers.
func checkDatasetName(ds string) error {
	if ds == "" {
		return fmt.Errorf("server: missing dataset parameter")
	}
	if len(ds) > api.MaxDatasetName {
		return fmt.Errorf("server: dataset name is %d bytes (max %d)", len(ds), api.MaxDatasetName)
	}
	return nil
}

// writeError maps a registry/decode error to its status code.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	body := api.ErrorResult{Error: err.Error()}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		// The body ran past maxIngestBody or maxSummaryBody: the request is
		// well-formed as far as it was read, there is just too much of it.
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, errIncompatible):
		status = http.StatusConflict
	case errors.Is(err, core.ErrUnknownVersion):
		// A future wire format: tell the poster which versions this build
		// speaks rather than hiding the cause in a generic 400.
		status = http.StatusUnsupportedMediaType
		body.Supported = core.SupportedWireVersions()
	case errors.Is(err, errNotAcceptable):
		status = http.StatusNotAcceptable
		body.Supported = core.SupportedWireVersions()
	case errors.Is(err, errNonFinite):
		status = http.StatusUnprocessableEntity
	}
	writeJSON(w, status, body)
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.list())
}

func (s *Server) handlePostSummary(w http.ResponseWriter, r *http.Request) {
	ds := r.URL.Query().Get("dataset")
	if err := checkDatasetName(ds); err != nil {
		writeError(w, err)
		return
	}
	// One summary per post: every decoder reads the body to its end and
	// refuses bytes after the summary, so a client that concatenates two
	// summaries in one POST gets a 400, not a success that lost the second.
	body := http.MaxBytesReader(w, r.Body, maxSummaryBody)
	// Content-Type drives the decoder. A content type that names a wire
	// version decodes strictly as that version (a declared-v2 body that is
	// not v2 is a 400, not a guess); one outside the wire vocabulary —
	// curl's form-urlencoded default, text/plain, nothing at all — falls
	// back to sniffing. An explicitly named unknown version is the one case
	// that must not be guessed around: 415 with the supported list.
	//
	// A canonical v2 body is stored and queried as posted; anything else is
	// rebuilt in that form here, at ingress.
	wire, named, err := core.WireVersionByContentType(r.Header.Get("Content-Type"))
	if err != nil {
		writeError(w, err)
		return
	}
	var sum core.Summary
	if named {
		sum, err = core.DecodeSummaryVersionFrom(body, wire)
	} else {
		sum, wire, err = core.DecodeSummaryFrom(body)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	if err := s.reg.PutCtx(r.Context(), ds, sum); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, api.PostResult{
		Dataset:  ds,
		Instance: sum.InstanceID(),
		Kind:     sum.Kind(),
		Size:     sum.Size(),
		Wire:     wire,
	})
}

// negotiateFetchVersion resolves a summary fetch's Accept header to a wire
// version. No header (or a wildcard before any wire type) selects v1 JSON,
// what curl and browsers can read; media ranges are scanned in order and
// the first one naming a known wire version wins. An Accept that names
// only unknown wire versions is a 415 carrying the supported list (the
// negotiation contract: unknown versions always answer 415); one naming
// only foreign types is a plain 406.
func negotiateFetchVersion(accept string) (int, error) {
	if accept == "" {
		return 1, nil
	}
	var unknown error
	for _, part := range strings.Split(accept, ",") {
		media := part
		if i := strings.IndexByte(media, ';'); i >= 0 {
			media = media[:i] // media-range parameters (q=…) carry no format information here
		}
		media = strings.TrimSpace(media)
		if media == "*/*" || media == "application/*" {
			return 1, nil
		}
		v, named, err := core.WireVersionByContentType(media)
		if err != nil {
			unknown = err
			continue
		}
		if named {
			return v, nil
		}
	}
	if unknown != nil {
		return 0, unknown
	}
	return 0, fmt.Errorf("%w: Accept %q", errNotAcceptable, accept)
}

func (s *Server) handleFetchSummary(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	ds := q.Get("dataset")
	instance, err := strconv.Atoi(q.Get("instance"))
	if ds == "" || err != nil {
		writeError(w, fmt.Errorf("server: fetch needs dataset and instance parameters"))
		return
	}
	wire, err := negotiateFetchVersion(r.Header.Get("Accept"))
	if err != nil {
		writeError(w, err)
		return
	}
	sums, err := s.reg.Get(ds, []int{instance})
	if err != nil {
		writeError(w, err)
		return
	}
	if wire == 1 {
		// JSON encoding buffers regardless (encoding/json cannot stream),
		// so encode before committing to a status: a failure — NaN weights
		// in a stored summary, which JSON has no representation for — is a
		// clean error response, not a 200 with an empty body.
		data, err := core.EncodeSummary(sums[0], 1)
		if err != nil {
			writeError(w, fmt.Errorf("server: encoding summary: %w", err))
			return
		}
		w.Header().Set("Content-Type", jsonContentType)
		w.Header().Set("X-Summary-Wire-Version", "1")
		_, _ = w.Write(data)
		return
	}
	w.Header().Set("Content-Type", core.ContentTypeV2)
	w.Header().Set("X-Summary-Wire-Version", "2")
	// Write the summary's own bytes: a million-entry summary is never
	// copied server-side. Headers are already out, but v2 encoding of a
	// registry-held summary (kind always known, any float bits
	// representable) only fails when the client vanishes mid-stream — and
	// a truncated body failing the client's decode is the right signal for
	// that.
	_ = core.EncodeSummaryTo(w, sums[0], 2)
}
