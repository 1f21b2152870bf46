// Package obs is the dependency-free observability substrate of the
// summary server: a concurrency-safe metrics registry of counters,
// gauges, and fixed-bucket histograms that renders the Prometheus text
// exposition format (version 0.0.4).
//
// The package exists so that every layer — HTTP server, engine, durable
// store — reports through one vocabulary without pulling a client
// library into the module. Three design rules keep the instrumented hot
// paths honest:
//
//   - Instruments are lock-free after construction: counters and gauges
//     are single atomics, a histogram observation is one binary search
//     plus two atomic adds and a CAS loop on the sum. Construction (and
//     exposition) take the registry lock; request paths never do.
//
//   - Every instrument method is nil-receiver safe, and every
//     constructor on a nil *Registry returns a nil instrument. A
//     component built without a registry (the in-process test path, a
//     store opened without Options.Metrics) calls the same Add/Inc/
//     Observe call sites and pays a nil check, not an atomic.
//
//   - Misregistration — invalid names, duplicate (name, labels) pairs,
//     one name under two types — panics at construction, the same
//     convention as server.New on a sharded engine config: these are
//     programming errors, not runtime conditions.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Labels are the constant labels of one series: fixed at construction,
// rendered on every exposition line. Per-request label values (method,
// status…) are modeled as distinct pre-constructed series, never by
// mutating labels at observation time.
type Labels map[string]string

// Registry holds metric families and renders them. The zero value is not
// usable; call NewRegistry. All methods are safe for concurrent use, and
// all methods on a nil *Registry are no-ops returning nil instruments.
type Registry struct {
	mu    sync.Mutex
	byFam map[string]*family
	names []string // registration-independent render order: sorted on write
}

// family is every series sharing one metric name: one TYPE, one HELP.
type family struct {
	name, help, typ string
	series          []series
	labelSet        map[string]bool // label strings already registered
}

// series is one labeled instrument inside a family.
type series interface {
	labelString() string
	writeTo(w io.Writer, name string)
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{byFam: make(map[string]*family)}
}

// register adds one series under name, creating the family on first use
// and enforcing the one-type-one-help-per-name rule.
func (r *Registry) register(name, help, typ string, s series) {
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byFam[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, labelSet: make(map[string]bool)}
		r.byFam[name] = f
		r.names = append(r.names, name)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.typ, typ))
	}
	ls := s.labelString()
	if f.labelSet[ls] {
		panic(fmt.Sprintf("obs: duplicate series %s%s", name, ls))
	}
	f.labelSet[ls] = true
	f.series = append(f.series, s)
}

// Counter registers and returns a monotone counter series. On a nil
// registry it returns nil — a valid, no-op instrument.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{labels: labelString(labels)}
	r.register(name, help, "counter", c)
	return c
}

// CounterFunc registers a counter series whose value is read from fn at
// exposition time — the zero-overhead bridge for components that already
// maintain their own atomics (the server's engine totals). fn must be
// safe for concurrent use and monotone. No-op on a nil registry.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() uint64) {
	if r == nil {
		return
	}
	r.register(name, help, "counter", &funcSeries{labels: labelString(labels), fn: func() string {
		return strconv.FormatUint(fn(), 10)
	}})
}

// Gauge registers and returns a gauge series (a settable integer level:
// in-flight requests, queue depths). No-op nil instrument on a nil
// registry.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{labels: labelString(labels)}
	r.register(name, help, "gauge", g)
	return g
}

// GaugeFunc registers a gauge series read from fn at exposition time —
// for values another subsystem already tracks under its own lock (sealed
// segment counts, snapshot entries). fn must be safe to call from
// the exposition goroutine. No-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, "gauge", &funcSeries{labels: labelString(labels), fn: func() string {
		return formatFloat(fn())
	}})
}

// Histogram registers and returns a histogram series over the given
// ascending upper bounds (seconds, for latency use); nil bounds selects
// latencyBuckets. A +Inf bucket is always implicit. No-op nil instrument
// on a nil registry.
func (r *Registry) Histogram(name, help string, labels Labels, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = latencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly ascending at %v", name, bounds[i]))
		}
	}
	h := &Histogram{
		labels:  labelString(labels),
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
	r.register(name, help, "histogram", h)
	return h
}

// writePrometheus renders every registered family in the Prometheus text
// exposition format, families sorted by name, series in registration
// order. Values are read with atomic loads (or the registered funcs), so
// a scrape concurrent with updates sees a near-point-in-time view; each
// histogram is internally consistent (cumulative buckets and _count come
// from one pass over its bucket array).
func (r *Registry) writePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	sort.Strings(r.names)
	fams := make([]*family, len(r.names))
	for i, name := range r.names {
		fams[i] = r.byFam[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help))
		b.WriteString("\n# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.typ)
		b.WriteByte('\n')
		for _, s := range f.series {
			s.writeTo(&b, f.name)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler returns the exposition endpoint: GET answers the registry's
// current state as text/plain version 0.0.4.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.writePrometheus(w)
	})
}

// Counter is a monotone uint64 series. All methods are safe on a nil
// receiver (no-ops reading zero).
//
//summarylint:nilsafe
type Counter struct {
	labels string
	v      atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Counters are monotone; there is deliberately no Sub.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the current count.
//
//summarylint:ignore read-back shared by the tests of internal/obs and internal/store (metrics_test.go)
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) labelString() string { return c.labels }
func (c *Counter) writeTo(w io.Writer, name string) {
	fmt.Fprintf(w, "%s%s %d\n", name, c.labels, c.v.Load())
}

// Gauge is a settable int64 level series. All methods are safe on a nil
// receiver.
//
//summarylint:nilsafe
type Gauge struct {
	labels string
	v      atomic.Int64
}

// add moves the level by delta (negative to decrease).
func (g *Gauge) add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Inc adds one.
func (g *Gauge) Inc() { g.add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.add(-1) }

func (g *Gauge) labelString() string { return g.labels }
func (g *Gauge) writeTo(w io.Writer, name string) {
	fmt.Fprintf(w, "%s%s %d\n", name, g.labels, g.v.Load())
}

// funcSeries renders a value read from a callback at exposition time.
type funcSeries struct {
	labels string
	fn     func() string
}

func (s *funcSeries) labelString() string { return s.labels }
func (s *funcSeries) writeTo(w io.Writer, name string) {
	fmt.Fprintf(w, "%s%s %s\n", name, s.labels, s.fn())
}

// latencyBuckets are the package's fixed log-scale latency bounds, in
// seconds: 100µs to 10s, roughly 2.5× per step. Sixteen buckets spans
// a sub-millisecond in-process query and a multi-second snapshot in one
// vocabulary; histograms constructed with nil bounds use these.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket distribution series. Observations are
// lock-free; negative and NaN values are rejected (a negative duration
// is a clock bug upstream, and folding it into the sum would corrupt the
// average forever). All methods are safe on a nil receiver.
//
//summarylint:nilsafe
type Histogram struct {
	labels  string
	bounds  []float64       // ascending upper bounds; +Inf implicit
	buckets []atomic.Uint64 // len(bounds)+1, non-cumulative; last is +Inf
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits, CAS-accumulated
}

// observe records one value, reporting whether it was accepted: negative
// and NaN observations are rejected, 0 lands in the first bucket (le
// is inclusive), +Inf in the implicit +Inf bucket.
func (h *Histogram) observe(v float64) bool {
	if h == nil {
		return false
	}
	if v < 0 || math.IsNaN(v) {
		return false
	}
	// First bound ≥ v is the owning bucket (le is an inclusive upper
	// bound); values past every bound go to the trailing +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return true
		}
	}
}

// ObserveDuration records a duration in seconds, rejecting negatives.
func (h *Histogram) ObserveDuration(d time.Duration) bool { return h.observe(d.Seconds()) }

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) bool { return h.observe(time.Since(start).Seconds()) }

// Count reads the number of accepted observations.
//
//summarylint:ignore read-back shared by the tests of internal/obs and internal/store (metrics_test.go)
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

func (h *Histogram) labelString() string { return h.labels }
func (h *Histogram) writeTo(w io.Writer, name string) {
	// One pass over the bucket atomics builds the cumulative counts and
	// the total, so _bucket and _count agree within this render even
	// while observations land concurrently.
	var cum uint64
	for i := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(h.labels, formatFloat(h.bounds[i])), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(h.labels, "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, h.labels, formatFloat(math.Float64frombits(h.sum.Load())))
	fmt.Fprintf(w, "%s_count%s %d\n", name, h.labels, cum)
}

// bucketLabels merges a series' constant labels with the bucket's le.
func bucketLabels(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// labelString renders constant labels once, at construction: sorted
// keys, escaped values, `{k="v",…}` — or "" for no labels. Invalid label
// names panic.
func labelString(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		checkLabelName(k)
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeValue(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var valueEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeValue(v string) string { return valueEscaper.Replace(v) }
func escapeHelp(v string) string  { return helpEscaper.Replace(v) }

// formatFloat renders a float the shortest way that round-trips; the
// exposition format accepts scientific notation.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// checkName enforces the Prometheus metric-name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func checkName(name string) {
	if !validName(name, true) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
}

// checkLabelName enforces the label-name charset [a-zA-Z_][a-zA-Z0-9_]*.
func checkLabelName(name string) {
	if !validName(name, false) {
		panic(fmt.Sprintf("obs: invalid label name %q", name))
	}
}

func validName(name string, allowColon bool) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_':
		case c == ':' && allowColon:
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}
