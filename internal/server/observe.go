package server

import (
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/pkg/api"
)

// This file is the server's observability layer: an Observer wraps the
// request mux with a middleware that measures every request (count,
// latency, in-flight, request/response bytes, status class — all
// per-endpoint), assigns a request ID propagated as X-Request-ID, and
// emits one structured log line per request. It also exports the ingest
// totals: pipelines stay completely uninstrumented (zero overhead in the
// sampling hot loop) and the server adds each request's pair count, which
// its scan returns, once, after the pipeline closes.

// endpointLabel buckets a request path into the fixed per-endpoint label
// vocabulary. Unknown paths collapse into "other" so a probe scan cannot
// mint unbounded series.
func endpointLabel(path string) string {
	switch path {
	case "/healthz", "/metrics", "/debug/traces", "/v1/datasets",
		"/v1/summaries", "/v1/ingest", "/v1/ingest/multi", "/v1/query":
		return path
	}
	return "other"
}

// instrumentedEndpoints is every endpointLabel value, the construction
// vocabulary for per-endpoint series.
var instrumentedEndpoints = []string{
	"/healthz", "/metrics", "/debug/traces", "/v1/datasets",
	"/v1/summaries", "/v1/ingest", "/v1/ingest/multi", "/v1/query", "other",
}

// statusClasses are the response status classes, indexed by code/100-1.
var statusClasses = [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// endpointMetrics are one endpoint's pre-constructed series; per-request
// work is pure atomic updates, never registry lookups or label
// formatting.
type endpointMetrics struct {
	requests  [5]*obs.Counter // by status class
	duration  *obs.Histogram
	reqBytes  *obs.Counter
	respBytes *obs.Counter
}

// Observer instruments one Server: construct it with NewObserver and
// hand it to server.New via WithObserver, which also serves its registry
// on GET /metrics. One Observer serves exactly one Server — its engine
// and dataset series read that server's state.
type Observer struct {
	reg       *obs.Registry
	log       *slog.Logger
	slow      time.Duration
	bound     bool
	inFlight  *obs.Gauge
	panics    *obs.Counter
	endpoints map[string]*endpointMetrics
	idBase    string
	idSeq     atomic.Uint64
	// tracer is the bound server's span recorder (nil or disabled =
	// tracing off; the middleware pays one atomic load either way).
	tracer *trace.Tracer
}

// ObserverOption configures an Observer at construction.
type ObserverOption func(*Observer)

// WithRequestLogger sets the logger receiving the per-request structured
// line (request_id, method, path, status, duration, bytes). Without it
// requests are measured but not logged — the quiet default for embedded
// and test servers; summaryd always passes its process logger.
func WithRequestLogger(l *slog.Logger) ObserverOption {
	return func(o *Observer) { o.log = l }
}

// WithSlowRequest sets the duration at or above which a request's log
// line is emitted at Warn level with slow=true instead of Info — the
// operator's tail-latency tripwire. Zero or negative disables the
// escalation. The default is one second.
func WithSlowRequest(d time.Duration) ObserverOption {
	return func(o *Observer) { o.slow = d }
}

// NewObserver builds an observer over the given metrics registry,
// pre-registering every per-endpoint HTTP series. A nil registry is
// legal: the instruments are nil no-ops and only the request log (if a
// logger is set) remains active.
func NewObserver(reg *obs.Registry, opts ...ObserverOption) *Observer {
	o := &Observer{
		reg:    reg,
		slow:   time.Second,
		idBase: fmt.Sprintf("%08x-", rand.Uint32()),
	}
	for _, opt := range opts {
		opt(o)
	}
	o.inFlight = reg.Gauge("summaryd_http_requests_in_flight",
		"Requests currently being served.", nil)
	// root is a fixed vocabulary: the goroutine roots a panic is contained
	// at, of which the request middleware is the first.
	o.panics = reg.Counter("summaryd_panics_total",
		"Panics contained at a goroutine root instead of killing the connection or the process.",
		obs.Labels{"root": "http"})
	o.endpoints = make(map[string]*endpointMetrics, len(instrumentedEndpoints))
	for _, ep := range instrumentedEndpoints {
		m := &endpointMetrics{
			duration: reg.Histogram("summaryd_http_request_duration_seconds",
				"Request latency by endpoint.", obs.Labels{"endpoint": ep}, nil),
			reqBytes: reg.Counter("summaryd_http_request_bytes_total",
				"Request body bytes read, by endpoint.", obs.Labels{"endpoint": ep}),
			respBytes: reg.Counter("summaryd_http_response_bytes_total",
				"Response body bytes written, by endpoint.", obs.Labels{"endpoint": ep}),
		}
		for i, class := range statusClasses {
			m.requests[i] = reg.Counter("summaryd_http_requests_total",
				"Requests served, by endpoint and status class.",
				obs.Labels{"endpoint": ep, "code": class})
		}
		o.endpoints[ep] = m
	}
	return o
}

// bindServer registers the series that read one server's state: the
// engine totals accumulated from every raw ingest, and the dataset
// count. Called by server.New; binding one observer to two
// servers would double-register and panics in the obs registry.
func (o *Observer) bindServer(s *Server) {
	if o.bound {
		panic("server: one Observer cannot instrument two servers")
	}
	o.bound = true
	reg := o.reg
	reg.CounterFunc("summaryd_engine_pairs_total",
		"Raw pairs pushed through ingest engine pipelines.", nil, s.engine.pairs.Load)
	reg.CounterFunc("summaryd_engine_ingests_total",
		"Completed raw-ingest requests (set-kind ingests included).", nil, s.engine.ingests.Load)
	reg.GaugeFunc("summaryd_datasets",
		"Registered datasets.", nil,
		func() float64 { return float64(s.reg.count()) })
	o.tracer = s.tracer
}

// intercept is the request middleware: measure, tag, serve, log.
func (o *Observer) intercept(next http.Handler, w http.ResponseWriter, r *http.Request) {
	ep := endpointLabel(r.URL.Path)
	m := o.endpoints[ep]
	rid := o.requestID(r)
	// The ID goes out before the handler runs so even a panic-500 or a
	// streamed response carries it; the log line below closes the loop.
	w.Header().Set("X-Request-ID", rid)

	// Root span: honor an inbound traceparent (the client's span becomes
	// the remote parent) and emit this request's own next to the request
	// ID, so a caller can stitch its half of the trace to ours. The whole
	// block is skipped behind one atomic load when tracing is off — no
	// header parse, no span, no context frame, no allocation.
	var sp *trace.Span
	if o.tracer.Enabled() {
		remote, _ := trace.ParseTraceparent(r.Header.Get("traceparent"))
		if sp = o.tracer.StartSpan(r.Method+" "+ep, remote); sp != nil {
			sp.SetAttr("request_id", rid)
			w.Header().Set("traceparent", sp.Context().Traceparent())
			r = r.WithContext(trace.ContextWithSpan(r.Context(), sp))
		}
	}

	body := &countingReader{rc: r.Body}
	r.Body = body
	sw := &statusWriter{ResponseWriter: w}
	o.inFlight.Inc()
	start := time.Now()
	o.serveContained(next, sw, r, rid, sp)
	dur := time.Since(start)
	o.inFlight.Dec()

	status := sw.status()
	class := status/100 - 1
	if class < 0 || class >= len(statusClasses) {
		class = 4 // out-of-band codes count as server errors
	}
	m.requests[class].Inc()
	m.duration.ObserveDuration(dur)
	m.reqBytes.Add(uint64(body.n))
	m.respBytes.Add(uint64(sw.n))

	// Close the root span after the response is fully measured; its
	// Finish publishes the trace to the ring /debug/traces serves.
	sp.SetInt("status", int64(status))
	sp.SetInt("bytes_in", body.n)
	sp.SetInt("bytes_out", sw.n)
	sp.Finish()

	if o.log == nil {
		return
	}
	slow := o.slow > 0 && dur >= o.slow
	lvl := slog.LevelInfo
	if slow {
		lvl = slog.LevelWarn
	}
	if !o.log.Enabled(r.Context(), lvl) {
		return
	}
	attrs := [10]slog.Attr{
		slog.String("request_id", rid),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("endpoint", ep),
		slog.Int("status", status),
		slog.Duration("duration", dur),
		slog.Int64("bytes_in", body.n),
		slog.Int64("bytes_out", sw.n),
		slog.Bool("slow", slow),
	}
	n := 9
	if sp != nil {
		// The trace ID is the join key between this line — slow-request
		// warnings especially — and the matching /debug/traces record.
		attrs[n] = slog.String("trace_id", sp.TraceID())
		n++
	}
	o.log.LogAttrs(r.Context(), lvl, "request", attrs[:n]...)
}

// serveContained runs the handler and contains a panic in it: the request
// answers 500 (if nothing was sent yet) naming its request and trace ids,
// the panic is counted and logged with its stack, and the middleware goes on
// to measure, trace and log the request like any other 5xx. Handlers return
// what they borrowed from a pool by defer, so that has happened by then.
func (o *Observer) serveContained(next http.Handler, sw *statusWriter, r *http.Request, rid string, sp *trace.Span) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		o.panics.Inc()
		ids := "request_id=" + rid
		if sp != nil {
			ids += " trace_id=" + sp.TraceID()
		}
		if o.log != nil {
			o.log.Error("panic", "root", "http", "request_id", rid, "panic", fmt.Sprint(v), "stack", string(debug.Stack()))
		}
		if sw.code == 0 {
			writeJSON(sw, http.StatusInternalServerError, api.ErrorResult{Error: "server: internal error (" + ids + ")"})
		}
	}()
	next.ServeHTTP(sw, r)
}

// requestID returns the request's correlation ID: a sane inbound
// X-Request-ID is honored (so a fronting proxy's ID threads through the
// whole line of servers), anything else gets a fresh process-unique ID —
// a random boot prefix plus a sequence number, cheap enough for the
// per-request path.
func (o *Observer) requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); id != "" && len(id) <= 64 && cleanASCII(id) {
		return id
	}
	return o.idBase + strconv.FormatUint(o.idSeq.Add(1), 36)
}

// cleanASCII reports whether an inbound ID is printable ASCII — anything
// else is dropped rather than reflected into headers and logs.
func cleanASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < 0x21 || s[i] > 0x7e {
			return false
		}
	}
	return true
}

// countingReader counts the request body bytes the handler actually
// read.
type countingReader struct {
	rc interface {
		Read([]byte) (int, error)
		Close() error
	}
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.rc.Close() }

// statusWriter records the response status and body size on the way
// through.
type statusWriter struct {
	http.ResponseWriter
	code int
	n    int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so streamed summary fetches
// keep flowing through the instrumented path.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// status is the recorded response code (an implicit 200 when the handler
// wrote nothing).
func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// engineTotals accumulates every raw ingest's counts: the weighted pairs
// its scan consumed, and the ingest itself. The handler adds them once per
// request, after the drain, so the scan loop carries no instrumentation.
type engineTotals struct {
	pairs, ingests atomic.Uint64
}

// engineStatus builds the /healthz engine block from the accumulated
// totals.
func (s *Server) engineStatus() *api.EngineStatus {
	return &api.EngineStatus{
		Pairs:   s.engine.pairs.Load(),
		Ingests: s.engine.ingests.Load(),
	}
}
