package trace

import (
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{Flags: 0x01}
	for i := range sc.TraceID {
		sc.TraceID[i] = byte(i + 1)
	}
	for i := range sc.SpanID {
		sc.SpanID[i] = byte(0xa0 + i)
	}
	h := sc.Traceparent()
	if len(h) != 55 || !strings.HasPrefix(h, "00-") {
		t.Fatalf("Traceparent() = %q", h)
	}
	got, ok := ParseTraceparent(h)
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if _, ok := ParseTraceparent(valid); !ok {
		t.Fatalf("valid header rejected: %q", valid)
	}
	cases := map[string]string{
		"empty":               "",
		"short":               valid[:54],
		"version ff":          "ff" + valid[2:],
		"uppercase version":   "0A" + valid[2:],
		"uppercase trace id":  "00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01",
		"non-hex trace id":    "00-0af7651916cd43dd8448eb211c80319z-b7ad6b7169203331-01",
		"zero trace id":       "00-00000000000000000000000000000000-b7ad6b7169203331-01",
		"zero span id":        "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
		"non-hex flags":       valid[:53] + "zz",
		"missing dash":        "00_0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"dash misplaced":      "00-0af7651916cd43dd8448eb211c80319c_b7ad6b7169203331-01",
		"v00 trailing":        valid + "-extra",
		"v00 trailing junk":   valid + "x",
		"future-ver no dash":  "01" + valid[2:] + "x",
		"non-hex version":     "zz" + valid[2:],
		"whole header spaces": strings.Repeat(" ", 55),
	}
	for name, in := range cases {
		if _, ok := ParseTraceparent(in); ok {
			t.Errorf("%s: ParseTraceparent(%q) accepted, want reject", name, in)
		}
	}
	// Future versions are accepted at exactly 55 bytes or when extra
	// fields continue with a dash.
	for _, in := range []string{"01" + valid[2:], "01" + valid[2:] + "-anything"} {
		sc, ok := ParseTraceparent(in)
		if !ok {
			t.Errorf("future version rejected: %q", in)
		}
		if !sc.valid() {
			t.Errorf("future version parsed invalid context: %q", in)
		}
	}
}

func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Add("ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Add("00-00000000000000000000000000000000-0000000000000000-00")
	f.Add("01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-tail")
	f.Add(strings.Repeat("0", 55))
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		sc, ok := ParseTraceparent(in)
		if !ok {
			// Invalid input must yield the zero context so callers mint
			// a fresh root.
			if sc != (SpanContext{}) {
				t.Fatalf("rejected input %q returned non-zero context %+v", in, sc)
			}
			return
		}
		if !sc.valid() {
			t.Fatalf("accepted input %q parsed to invalid context", in)
		}
		// Whatever we accept must round-trip through our own rendering.
		again, ok2 := ParseTraceparent(sc.Traceparent())
		if !ok2 || again != sc {
			t.Fatalf("round trip of accepted %q: got %+v ok=%v", in, again, ok2)
		}
	})
}

func TestSpanParentageAndPublish(t *testing.T) {
	tr := New(4)
	root := tr.StartSpan("GET /v1/query", SpanContext{})
	if root == nil {
		t.Fatal("enabled tracer returned nil root")
	}
	child := root.StartChild("store.append")
	grand := child.StartChild("wal.fsync")
	grand.SetInt("bytes", 512)
	grand.Finish()
	child.SetAttr("dataset", "flows")
	child.Finish()
	root.Finish()

	recs := tr.Traces()
	if len(recs) != 1 {
		t.Fatalf("Traces() = %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.TraceID != root.TraceID() || rec.RemoteParent {
		t.Fatalf("record identity: %+v", rec)
	}
	if len(rec.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(rec.Spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range rec.Spans {
		byName[s.Name] = s
	}
	if byName["GET /v1/query"].ParentID != "" {
		t.Fatalf("fresh root has parent %q", byName["GET /v1/query"].ParentID)
	}
	if byName["store.append"].ParentID != byName["GET /v1/query"].SpanID {
		t.Fatalf("child parent = %q, want root %q",
			byName["store.append"].ParentID, byName["GET /v1/query"].SpanID)
	}
	if byName["wal.fsync"].ParentID != byName["store.append"].SpanID {
		t.Fatalf("grandchild parent = %q, want %q",
			byName["wal.fsync"].ParentID, byName["store.append"].SpanID)
	}
	if got := byName["wal.fsync"].Attrs; len(got) != 1 || got[0] != (Attr{"bytes", "512"}) {
		t.Fatalf("grandchild attrs = %+v", got)
	}
}

func TestRemoteParentContinuesTrace(t *testing.T) {
	remote, ok := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	if !ok {
		t.Fatal("seed header rejected")
	}
	tr := New(4)
	root := tr.StartSpan("server", remote)
	if root.Context().TraceID != remote.TraceID {
		t.Fatal("root did not continue remote trace ID")
	}
	if root.Context().SpanID == remote.SpanID {
		t.Fatal("root reused remote span ID")
	}
	root.Finish()
	rec := tr.Traces()[0]
	if !rec.RemoteParent {
		t.Fatal("record not marked remote_parent")
	}
	if rec.Spans[0].ParentID != "b7ad6b7169203331" {
		t.Fatalf("root parent = %q, want remote span", rec.Spans[0].ParentID)
	}
}

func TestRingEvictionOrder(t *testing.T) {
	tr := New(2)
	names := []string{"first", "second", "third"}
	for _, n := range names {
		tr.StartSpan(n, SpanContext{}).Finish()
	}
	recs := tr.Traces()
	if len(recs) != 2 {
		t.Fatalf("ring holds %d, want 2", len(recs))
	}
	// Newest first; "first" evicted.
	if recs[0].Spans[0].Name != "third" || recs[1].Spans[0].Name != "second" {
		t.Fatalf("eviction order wrong: %q, %q",
			recs[0].Spans[0].Name, recs[1].Spans[0].Name)
	}
}

func TestDisabledTracerIsInertAndAllocFree(t *testing.T) {
	var nilTracer *Tracer
	if nilTracer.Enabled() || nilTracer.StartSpan("x", SpanContext{}) != nil {
		t.Fatal("nil tracer not inert")
	}
	if nilTracer.Traces() != nil {
		t.Fatal("nil tracer returned traces")
	}

	off := New(2)
	off.SetEnabled(false)
	if off.Enabled() || off.StartSpan("x", SpanContext{}) != nil {
		t.Fatal("disabled tracer not inert")
	}

	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		s := off.StartSpan("req", SpanContext{})
		c := s.StartChild("child")
		c.SetAttr("k", "v")
		c.SetInt("n", 42)
		c.Finish()
		sub := ContextWithSpan(ctx, s)
		SpanFromContext(sub).Finish()
		s.Finish()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing path allocates %v per op, want 0", allocs)
	}
}

func TestUnfinishedChildRecordedAtPublish(t *testing.T) {
	tr := New(2)
	root := tr.StartSpan("root", SpanContext{})
	_ = root.StartChild("left-open")
	time.Sleep(time.Millisecond)
	root.Finish()
	rec := tr.Traces()[0]
	if len(rec.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(rec.Spans))
	}
	for _, s := range rec.Spans {
		if s.DurationUS < 0 {
			t.Fatalf("span %q has negative duration", s.Name)
		}
	}
}

func TestFinishIdempotent(t *testing.T) {
	tr := New(2)
	root := tr.StartSpan("root", SpanContext{})
	root.Finish()
	root.Finish()
	if n := len(tr.Traces()); n != 1 {
		t.Fatalf("double Finish published %d records, want 1", n)
	}
}

// TestSpansPerTraceAreBounded: a trace that opens more spans than
// maxSpans keeps exactly the first maxSpans and reports the rest as
// dropped_spans, so one long operation (store recovery verifies one file
// per span) cannot grow a ring record without limit.
func TestSpansPerTraceAreBounded(t *testing.T) {
	tr := New(2)
	root := tr.StartSpan("root", SpanContext{})
	const children = maxSpans + 10
	for i := 0; i < children; i++ {
		c := root.StartChild("store.verify")
		c.SetInt("file", int64(i))
		c.Finish()
	}
	root.Finish()
	rec := tr.Traces()[0]
	if len(rec.Spans) != maxSpans {
		t.Fatalf("kept %d spans, want %d", len(rec.Spans), maxSpans)
	}
	if want := 1 + children - maxSpans; rec.DroppedSpans != want {
		t.Fatalf("dropped_spans = %d, want %d", rec.DroppedSpans, want)
	}
	if rec.Spans[0].Name != "root" || rec.Spans[maxSpans-1].Attrs[0].Value != strconv.Itoa(maxSpans-2) {
		t.Fatalf("kept spans are not the first %d: %+v ... %+v", maxSpans, rec.Spans[0], rec.Spans[maxSpans-1])
	}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"dropped_spans":11`) {
		t.Fatalf("record JSON lacks dropped_spans: %.200s", b)
	}
}

// TestDroppedSpansOmittedWhenZero: a trace within the cap drops nothing
// and its JSON has no dropped_spans key, so ordinary request records read
// as before the cap.
func TestDroppedSpansOmittedWhenZero(t *testing.T) {
	tr := New(1)
	root := tr.StartSpan("root", SpanContext{})
	root.StartChild("child").Finish()
	root.Finish()
	rec := tr.Traces()[0]
	if len(rec.Spans) != 2 || rec.DroppedSpans != 0 {
		t.Fatalf("kept %d spans, dropped %d; want 2 and 0", len(rec.Spans), rec.DroppedSpans)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "dropped_spans") {
		t.Fatalf("record JSON carries dropped_spans though none were dropped: %s", b)
	}
}

// TestSpanCapCountsEveryDescendant: the cap is per trace, not per parent
// — grandchildren spend the same budget as children — and a span opened
// past it still takes attributes, children and Finish, none of which is
// recorded.
func TestSpanCapCountsEveryDescendant(t *testing.T) {
	tr := New(1)
	root := tr.StartSpan("root", SpanContext{})
	for i := 0; i < maxSpans/2; i++ {
		c := root.StartChild("child")
		c.StartChild("grandchild").Finish()
		c.Finish()
	}
	// root + maxSpans descendants: the last grandchild is the first drop.
	late := root.StartChild("late")
	late.SetAttr("k", "v")
	late.SetInt("n", 1)
	late.StartChild("later").Finish()
	late.Finish()
	root.Finish()
	rec := tr.Traces()[0]
	if len(rec.Spans) != maxSpans || rec.DroppedSpans != 3 {
		t.Fatalf("kept %d spans, dropped %d; want %d and 3", len(rec.Spans), rec.DroppedSpans, maxSpans)
	}
	if last := rec.Spans[maxSpans-1]; last.Name != "child" {
		t.Fatalf("last kept span is %q, want the last child", last.Name)
	}
	for _, sp := range rec.Spans {
		if sp.Name == "late" || sp.Name == "later" {
			t.Fatalf("span %q opened past the cap was recorded", sp.Name)
		}
	}
}

// TestSpanBudgetIsPerTrace: a trace that hit the cap leaves the next
// trace of the same tracer a full budget.
func TestSpanBudgetIsPerTrace(t *testing.T) {
	tr := New(2)
	for _, children := range []int{maxSpans, 3} {
		root := tr.StartSpan("root", SpanContext{})
		for i := 0; i < children; i++ {
			root.StartChild("child").Finish()
		}
		root.Finish()
	}
	recs := tr.Traces() // newest first
	if len(recs[1].Spans) != maxSpans || recs[1].DroppedSpans != 1 {
		t.Fatalf("first trace kept %d, dropped %d; want %d and 1", len(recs[1].Spans), recs[1].DroppedSpans, maxSpans)
	}
	if len(recs[0].Spans) != 4 || recs[0].DroppedSpans != 0 {
		t.Fatalf("second trace kept %d, dropped %d; want 4 and 0", len(recs[0].Spans), recs[0].DroppedSpans)
	}
}

// TestSpanCapUnderConcurrentChildren: children opened from several
// goroutines at once, as store recovery's verify workers do, are kept up
// to the cap and every other one is counted, none lost.
func TestSpanCapUnderConcurrentChildren(t *testing.T) {
	tr := New(1)
	root := tr.StartSpan("root", SpanContext{})
	const workers, each = 4, maxSpans / 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				root.StartChild("store.verify").Finish()
			}
		}()
	}
	wg.Wait()
	root.Finish()
	rec := tr.Traces()[0]
	if len(rec.Spans) != maxSpans {
		t.Fatalf("kept %d spans, want %d", len(rec.Spans), maxSpans)
	}
	if got, want := len(rec.Spans)+rec.DroppedSpans, 1+workers*each; got != want {
		t.Fatalf("kept + dropped = %d, want every span opened (%d)", got, want)
	}
}
