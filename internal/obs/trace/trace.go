// Package trace is the request-tracing half of the observability
// substrate: a dependency-free span recorder with W3C traceparent
// propagation and a bounded in-memory ring of completed traces.
//
// The design rules mirror package obs:
//
//   - Disabled tracing costs nothing. Every recording method is safe on
//     a nil *Span / nil *Tracer, and a constructed Tracer that is
//     switched off answers StartSpan with nil after one atomic load. The
//     fast paths are `//summarylint:hot` — lint-enforced to allocate
//     only when a span actually exists.
//
//   - Span timing is monotonic: start is a time.Time carrying the
//     monotonic clock reading, durations come from time.Since.
//
//   - Completed traces are published to a fixed-capacity ring when the
//     root span finishes; the ring holds deep-copied records, so a
//     published trace is immutable and safe to serve from /debug/traces
//     while new requests record concurrently.
package trace

import (
	"context"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span. Values are strings;
// numeric helpers format at record time (the slow path).
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRecord is the published form of one span.
type SpanRecord struct {
	SpanID     string    `json:"span_id"`
	ParentID   string    `json:"parent_id,omitempty"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationUS int64     `json:"duration_us"`
	Attrs      []Attr    `json:"attrs,omitempty"`
}

// Record is one completed trace as served by /debug/traces: the trace
// ID, whether the root continued a remote (inbound traceparent) parent,
// and the first maxSpans spans recorded under it in start order, with
// the count of the later ones that were not kept.
type Record struct {
	TraceID      string       `json:"trace_id"`
	RemoteParent bool         `json:"remote_parent,omitempty"`
	Spans        []SpanRecord `json:"spans"`
	DroppedSpans int          `json:"dropped_spans,omitempty"`
}

// maxSpans bounds the spans one trace keeps. A trace that opens more —
// store recovery opens one store.verify span per file it verifies — keeps
// the first maxSpans and counts the rest in Record.DroppedSpans, so one
// trace's memory stays bounded however many children it opens.
const maxSpans = 256

// Tracer owns the enabled switch and the ring of recent traces. A nil
// *Tracer is a valid, permanently-off tracer; a constructed one can be
// toggled at runtime with SetEnabled. All methods are safe for
// concurrent use.
//
//summarylint:nilsafe
type Tracer struct {
	enabled atomic.Bool

	mu    sync.Mutex
	ring  []Record // fixed capacity; next is the oldest slot once full
	next  int
	count int
}

// DefaultRing is the default capacity of the completed-trace ring.
const DefaultRing = 128

// New returns an enabled Tracer retaining the last ringCap completed
// traces (DefaultRing when ringCap <= 0).
func New(ringCap int) *Tracer {
	if ringCap <= 0 {
		ringCap = DefaultRing
	}
	t := &Tracer{ring: make([]Record, 0, ringCap)}
	t.enabled.Store(true)
	return t
}

// SetEnabled flips recording at runtime. Disabling does not clear the
// ring; already-published traces remain visible.
//
//summarylint:ignore the constructed-but-off tracer of internal/server's BenchmarkServerQueryTraced (a gated hot-path row) and the trace package's TestDisabledTracerIsInertAndAllocFree share it
func (t *Tracer) SetEnabled(on bool) {
	if t == nil {
		return
	}
	t.enabled.Store(on)
}

// Enabled reports whether StartSpan currently records.
//
//summarylint:hot
func (t *Tracer) Enabled() bool {
	if t == nil {
		return false
	}
	return t.enabled.Load()
}

// StartSpan opens a root span. When remote is valid (a parsed inbound
// traceparent) the new trace continues that trace ID with the remote
// span as parent; otherwise a fresh trace ID is minted with the sampled
// flag set. Returns nil — record nothing, allocate nothing — when the
// tracer is nil or disabled.
//
//summarylint:hot
func (t *Tracer) StartSpan(name string, remote SpanContext) *Span {
	if t == nil {
		return nil
	}
	if !t.enabled.Load() {
		return nil
	}
	return t.startSpanSlow(name, remote)
}

// startSpanSlow is the recording path of StartSpan.
func (t *Tracer) startSpanSlow(name string, remote SpanContext) *Span {
	tr := &traceState{tracer: t}
	s := &Span{t: tr, name: name, start: time.Now()}
	if remote.valid() {
		s.ctx.TraceID = remote.TraceID
		s.ctx.Flags = remote.Flags
		s.parent = remote.SpanID
		tr.remoteParent = true
	} else {
		randBytes(s.ctx.TraceID[:])
		s.ctx.Flags = 0x01 // sampled
	}
	randBytes(s.ctx.SpanID[:])
	tr.root = s
	tr.spans = append(tr.spans, s)
	return s
}

// publish deep-copies a finished trace into the ring, evicting the
// oldest record once the ring is at capacity.
func (t *Tracer) publish(rec Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count < cap(t.ring) {
		t.ring = append(t.ring, rec)
		t.count++
		return
	}
	t.ring[t.next] = rec
	t.next = (t.next + 1) % cap(t.ring)
}

// Traces snapshots the ring, newest trace first.
func (t *Tracer) Traces() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Record, 0, t.count)
	// Ring order is oldest→newest starting at next; walk it backwards.
	for i := t.count - 1; i >= 0; i-- {
		out = append(out, t.ring[(t.next+i)%t.count])
	}
	return out
}

// traceState is the shared mutable state of one in-flight trace: its
// spans and the lock serializing recording across goroutines (a request
// handler and the store can annotate concurrently).
type traceState struct {
	tracer       *Tracer
	remoteParent bool

	mu        sync.Mutex
	spans     []*Span
	dropped   int // children opened after spans reached maxSpans
	root      *Span
	published bool
}

// Span is one timed operation inside a trace. A nil *Span is the
// disabled tracer's span: every method is a guarded no-op, so call
// sites never branch on tracing themselves.
//
//summarylint:nilsafe
type Span struct {
	t      *traceState
	ctx    SpanContext
	parent [8]byte // zero for a fresh root
	name   string
	start  time.Time
	dur    time.Duration
	done   bool
	attrs  []Attr
}

// Context returns the span's wire identity for traceparent injection.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.ctx
}

// TraceID returns the lowercase-hex trace ID, the correlation key
// between slog lines and /debug/traces ("" on a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return hexString(s.ctx.TraceID[:])
}

// StartChild opens a sub-span under s. Returns nil on a nil receiver,
// so span trees built on a disabled tracer stay free.
//
//summarylint:hot
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.startChildSlow(name)
}

func (s *Span) startChildSlow(name string) *Span {
	c := &Span{t: s.t, name: name, start: time.Now()}
	c.ctx.TraceID = s.ctx.TraceID
	c.ctx.Flags = s.ctx.Flags
	c.parent = s.ctx.SpanID
	randBytes(c.ctx.SpanID[:])
	s.t.mu.Lock()
	if len(s.t.spans) < maxSpans {
		s.t.spans = append(s.t.spans, c)
	} else {
		s.t.dropped++
	}
	s.t.mu.Unlock()
	return c
}

// SetAttr annotates the span with a string attribute.
//
//summarylint:hot
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.setAttrSlow(key, value)
}

func (s *Span) setAttrSlow(key, value string) {
	s.t.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.t.mu.Unlock()
}

// SetInt annotates the span with an integer attribute.
//
//summarylint:hot
func (s *Span) SetInt(key string, value int64) {
	if s == nil {
		return
	}
	s.setAttrSlow(key, strconv.FormatInt(value, 10))
}

// Finish stops the span's clock. Finishing the root span publishes the
// whole trace to the tracer's ring; spans still open at that point are
// recorded with the duration they had accumulated. Finish is idempotent.
//
//summarylint:hot
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.finishSlow()
}

func (s *Span) finishSlow() {
	t := s.t
	t.mu.Lock()
	if !s.done {
		s.done = true
		s.dur = time.Since(s.start)
	}
	isRoot := s == t.root && !t.published
	if isRoot {
		t.published = true
	}
	var rec Record
	if isRoot {
		rec = t.recordLocked()
	}
	t.mu.Unlock()
	if isRoot {
		t.tracer.publish(rec)
	}
}

// recordLocked renders the trace's current state as an immutable Record.
// Caller holds t.mu.
func (t *traceState) recordLocked() Record {
	rec := Record{
		TraceID:      hexString(t.root.ctx.TraceID[:]),
		RemoteParent: t.remoteParent,
		Spans:        make([]SpanRecord, len(t.spans)),
		DroppedSpans: t.dropped,
	}
	for i, s := range t.spans {
		sr := SpanRecord{
			SpanID: hexString(s.ctx.SpanID[:]),
			Name:   s.name,
			Start:  s.start,
		}
		if s.parent != [8]byte{} {
			sr.ParentID = hexString(s.parent[:])
		}
		dur := s.dur
		if !s.done {
			dur = time.Since(s.start)
		}
		sr.DurationUS = dur.Microseconds()
		if len(s.attrs) > 0 {
			sr.Attrs = append([]Attr(nil), s.attrs...)
		}
		rec.Spans[i] = sr
	}
	return rec
}

// randBytes fills b from math/rand/v2's global source — span IDs need
// uniqueness, not unpredictability.
func randBytes(b []byte) {
	for len(b) >= 8 {
		v := rand.Uint64()
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		b = b[8:]
	}
	if len(b) > 0 {
		v := rand.Uint64()
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
	}
}

// ctxKey is the context key carrying the current span.
type ctxKey struct{}

// ContextWithSpan returns ctx carrying s. A nil span returns ctx
// unchanged, so the disabled path allocates no context frame.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil. The nil
// result composes: methods on the nil span are no-ops.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
