package store

import (
	"bytes"
	"errors"
	"log/slog"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs/trace"
	"repro/internal/testutil"
)

// TestSnapshotLogAndTrace: a background snapshot emits one slog line
// carrying its sequence and the trace ID of the cut that triggered it,
// and records its own store.snapshot trace stamped the same way — the
// correlation that makes a later /healthz snapshot_error attributable
// to a specific request.
func TestSnapshotLogAndTrace(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	rng := rand.New(rand.NewSource(23))
	// The worker is the log's only writer and wait() orders it before the
	// reads below, so a plain buffer is race-free here.
	var logBuf bytes.Buffer
	tr := trace.New(4)
	st, err := Open(t.TempDir(), Options{
		SnapshotEvery: -1,
		Tracer:        tr,
		Logger:        slog.New(slog.NewJSONHandler(&logBuf, nil)),
	}, func(string, core.Summary) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	trigger := tr.StartSpan("POST /v1/summaries", trace.SpanContext{})
	if _, err := st.AppendTraced(trigger, specs[0].name, randomSummary(rng, specs[0])); err != nil {
		t.Fatal(err)
	}
	snapSum := randomSummary(rng, specs[0])
	dump := func(emit func(string, core.Summary) error) error {
		return emit(specs[0].name, snapSum)
	}
	wait, err := st.SnapshotTraced(trigger, dump, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	trigger.Finish()

	logs := logBuf.String()
	if !strings.Contains(logs, `"msg":"snapshot"`) {
		t.Fatalf("no snapshot log line emitted: %q", logs)
	}
	if !strings.Contains(logs, `"snapshot_seq":1`) {
		t.Errorf("snapshot log line carries no sequence: %q", logs)
	}
	if !strings.Contains(logs, `"trigger_trace":"`+trigger.TraceID()+`"`) {
		t.Errorf("snapshot log line carries no trigger trace ID %s: %q", trigger.TraceID(), logs)
	}

	// The snapshot outlives its trigger, so it records as its own trace,
	// stamped with the trigger's trace ID; the inline segment seal is a
	// child of the trigger itself.
	var snapRoot *trace.SpanRecord
	for _, rec := range tr.Traces() {
		for i := range rec.Spans {
			if rec.Spans[i].Name == "store.snapshot" && rec.Spans[i].ParentID == "" {
				snapRoot = &rec.Spans[i]
			}
		}
	}
	if snapRoot == nil {
		t.Fatalf("no store.snapshot root span recorded in %+v", tr.Traces())
	}
	attrs := make(map[string]string)
	for _, a := range snapRoot.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["trigger_trace"] != trigger.TraceID() {
		t.Errorf("store.snapshot trigger_trace = %q, want %q", attrs["trigger_trace"], trigger.TraceID())
	}
	if attrs["snapshot_seq"] != "1" {
		t.Errorf("store.snapshot snapshot_seq = %q, want 1", attrs["snapshot_seq"])
	}
	rec := findTriggerRecord(tr, trigger.TraceID())
	if rec == nil {
		t.Fatal("trigger trace not published")
	}
	var sawRotate bool
	for _, sp := range rec.Spans {
		if sp.Name == "store.rotate" {
			sawRotate = true
		}
	}
	if !sawRotate {
		t.Errorf("snapshot cut recorded no store.rotate child under the trigger: %+v", rec.Spans)
	}
}

func findTriggerRecord(tr *trace.Tracer, traceID string) *trace.Record {
	recs := tr.Traces()
	for i := range recs {
		if recs[i].TraceID == traceID {
			return &recs[i]
		}
	}
	return nil
}

// TestSnapshotFailureLogCorrelates: a failing snapshot's error line and
// the /healthz snapshot_error carry the same sequence number.
func TestSnapshotFailureLogCorrelates(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	rng := rand.New(rand.NewSource(24))
	var logBuf bytes.Buffer
	st, err := Open(t.TempDir(), Options{
		SnapshotEvery: -1,
		Logger:        slog.New(slog.NewJSONHandler(&logBuf, nil)),
	}, func(string, core.Summary) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Append(specs[0].name, randomSummary(rng, specs[0])); err != nil {
		t.Fatal(err)
	}
	boom := func(emit func(string, core.Summary) error) error {
		return errors.New("dump exploded")
	}
	wait, err := st.SnapshotTraced(nil, boom, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := wait(); err == nil {
		t.Fatal("failing dump reported no error")
	}
	logs := logBuf.String()
	if !strings.Contains(logs, `"msg":"snapshot failed"`) || !strings.Contains(logs, `"snapshot_seq":1`) {
		t.Errorf("failure line missing or unsequenced: %q", logs)
	}
	if got := st.Status().SnapshotError; !strings.Contains(got, "snapshot 1:") {
		t.Errorf("snapshot_error %q does not name the sequence the log used", got)
	}
}

// TestAppendSpanTree: a traced registration hangs one store.append span
// under the caller's span, with the segment it landed in and, as its own
// children, the rotation the full segment needed and the fsync. A nil
// span, the untraced path, appends the same.
func TestAppendSpanTree(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	_, st := reopen(t, t.TempDir(), Options{SnapshotEvery: -1, SegmentBytes: oneRecordPerSegment, Fsync: true})
	defer st.Close()
	if _, err := st.AppendTraced(nil, specs[0].name, randomSummary(rng, specs[0])); err != nil {
		t.Fatal(err)
	}
	tr := trace.New(1)
	req := tr.StartSpan("request", trace.SpanContext{})
	if _, err := st.AppendTraced(req, specs[0].name, randomSummary(rng, specs[0])); err != nil {
		t.Fatal(err)
	}
	req.Finish()
	recs := tr.Traces()
	if len(recs) != 1 {
		t.Fatalf("%d traces, want the request's only", len(recs))
	}
	spans := recs[0].Spans
	if len(spans) != 4 || spans[1].Name != "store.append" || spans[2].Name != "store.rotate" || spans[3].Name != "store.fsync" {
		t.Fatalf("spans %+v, want request, store.append, store.rotate, store.fsync", spans)
	}
	if spans[1].ParentID != spans[0].SpanID || spans[2].ParentID != spans[1].SpanID || spans[3].ParentID != spans[1].SpanID {
		t.Fatalf("want store.append under the request and rotate and fsync under store.append: %+v", spans)
	}
	if a := spans[1].Attrs; len(a) == 0 || a[0].Key != "segment" || a[0].Value != "2" {
		t.Fatalf("store.append attrs %+v, want segment=2 (the first append filled segment 1)", a)
	}
}
