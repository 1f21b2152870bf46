package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs/trace"
	"repro/pkg/api"
)

// fakePersister records appends and can be told to fail, to test the
// registry's persistence contract without disk. Its SnapshotTraced runs the
// dump synchronously, inline under the registry lock.
type fakePersister struct {
	appended  []string // "dataset/instance" in append order
	failNext  error
	due       bool
	snapErr   error      // next SnapshotTraced fails with this
	snapshots [][]string // dump contents per snapshot call
	// The span each AppendTraced and SnapshotTraced call received.
	appendSpans, snapSpans []*trace.Span
}

func (p *fakePersister) AppendTraced(sp *trace.Span, ds string, s core.Summary) (bool, error) {
	p.appendSpans = append(p.appendSpans, sp)
	if p.failNext != nil {
		err := p.failNext
		p.failNext = nil
		return false, err
	}
	p.appended = append(p.appended, fmt.Sprintf("%s/%d", ds, s.InstanceID()))
	due := p.due
	p.due = false
	return due, nil
}

func (p *fakePersister) SnapshotTraced(sp *trace.Span, dump func(emit func(string, core.Summary) error) error, syncWait bool) (func() error, error) {
	p.snapSpans = append(p.snapSpans, sp)
	if p.snapErr != nil {
		err := p.snapErr
		p.snapErr = nil
		return nil, err
	}
	var image []string
	if err := dump(func(ds string, s core.Summary) error {
		image = append(image, fmt.Sprintf("%s/%d", ds, s.InstanceID()))
		return nil
	}); err != nil {
		return nil, err
	}
	p.snapshots = append(p.snapshots, image)
	return func() error { return nil }, nil
}

func persistSummary(instance int) core.Summary {
	return core.NewSummarizer(7).SummarizePPS(instance, dataset.Instance{1: 2, 3: 4}, 0.5)
}

func TestPutBoundsDatasetNameWithoutPersister(t *testing.T) {
	// The name bound is an API invariant, not a durability detail: an
	// in-memory registry must reject the same names the durable store
	// would, or the accepted-name set would depend on -data-dir — and a
	// registry populated without a persister could hold a name a later
	// SetPersister + Snapshot chokes on.
	reg := NewRegistry()
	long := make([]byte, api.MaxDatasetName+1)
	for i := range long {
		long[i] = 'n'
	}
	if err := reg.Put(string(long), persistSummary(0)); err == nil {
		t.Fatal("Put accepted a dataset name longer than api.MaxDatasetName")
	}
	if _, err := reg.Get(string(long), nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("overlong dataset was registered anyway: err=%v", err)
	}
	if err := reg.Put(string(long[:api.MaxDatasetName]), persistSummary(0)); err != nil {
		t.Fatalf("put with max-length name: %v", err)
	}
}

func TestPutAppendsToPersister(t *testing.T) {
	reg := NewRegistry()
	p := &fakePersister{}
	reg.SetPersister(p)
	for i := 0; i < 3; i++ {
		if err := reg.Put("d", persistSummary(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	want := []string{"d/0", "d/1", "d/2"}
	if len(p.appended) != len(want) {
		t.Fatalf("appended %v, want %v", p.appended, want)
	}
	for i := range want {
		if p.appended[i] != want[i] {
			t.Fatalf("appended %v, want %v", p.appended, want)
		}
	}
}

func TestPutRollsBackOnPersistFailure(t *testing.T) {
	reg := NewRegistry()
	p := &fakePersister{}
	reg.SetPersister(p)

	// A failed append on a fresh dataset leaves no trace: the dataset must
	// not exist, or a restart would silently disagree with what the
	// client was told.
	p.failNext = errors.New("disk full")
	if err := reg.Put("d", persistSummary(0)); err == nil {
		t.Fatal("Put succeeded though the persister failed")
	}
	if reg.count() != 0 {
		t.Fatalf("failed Put left %d datasets behind", reg.count())
	}

	// A failed replacement restores the previous summary.
	first := persistSummary(0)
	if err := reg.Put("d", first); err != nil {
		t.Fatalf("put: %v", err)
	}
	p.failNext = errors.New("disk full")
	if err := reg.Put("d", persistSummary(0)); err == nil {
		t.Fatal("replacement succeeded though the persister failed")
	}
	sums, err := reg.Get("d", []int{0})
	if err != nil {
		t.Fatalf("get after rollback: %v", err)
	}
	if sums[0] != first {
		t.Fatal("rollback did not restore the previous summary")
	}
}

func TestPutSnapshotsWhenDue(t *testing.T) {
	reg := NewRegistry()
	p := &fakePersister{}
	reg.SetPersister(p)
	if err := reg.Put("b", persistSummary(1)); err != nil {
		t.Fatal(err)
	}
	p.due = true // next append reports a snapshot is due
	if err := reg.Put("a", persistSummary(0)); err != nil {
		t.Fatal(err)
	}
	if len(p.snapshots) != 1 {
		t.Fatalf("got %d snapshots, want 1", len(p.snapshots))
	}
	// The dump is a consistent cut including the append that tripped it,
	// in deterministic order: datasets by name, instances ascending.
	want := []string{"a/0", "b/1"}
	got := p.snapshots[0]
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("snapshot dump %v, want %v", got, want)
	}
}

func TestDumpDeterministicOrder(t *testing.T) {
	reg := NewRegistry()
	for _, ds := range []string{"zeta", "alpha"} {
		for _, i := range []int{2, 0, 1} {
			if err := reg.Put(ds, persistSummary(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var got []string
	if err := reg.Dump(func(ds string, s core.Summary) error {
		got = append(got, fmt.Sprintf("%s/%d", ds, s.InstanceID()))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha/0", "alpha/1", "alpha/2", "zeta/0", "zeta/1", "zeta/2"}
	if len(got) != len(want) {
		t.Fatalf("dump %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dump %v, want %v", got, want)
		}
	}
}

func TestHealthzReportsStore(t *testing.T) {
	status := api.StoreStatus{Dir: "/tmp/x", WALRecords: 3, WALBytes: 123, Fsync: true}
	srv := New(NewRegistry(), engine.Config{}, WithStoreStatus(func() api.StoreStatus { return status }))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var hr api.HealthResult
	if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if hr.Store == nil || *hr.Store != status {
		t.Fatalf("healthz store = %+v, want %+v", hr.Store, status)
	}

	// Without the option the key is absent entirely.
	srv = New(NewRegistry(), engine.Config{})
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["store"]; ok {
		t.Fatal("in-memory server reports a store in healthz")
	}
}

func TestRegistrySnapshotEntryPoint(t *testing.T) {
	reg := NewRegistry()
	// Without a persister, Snapshot is a harmless no-op.
	if err := reg.Snapshot(); err != nil {
		t.Fatalf("snapshot without persister: %v", err)
	}
	p := &fakePersister{}
	reg.SetPersister(p)
	if err := reg.Put("d", persistSummary(0)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if len(p.snapshots) != 1 || len(p.snapshots[0]) != 1 || p.snapshots[0][0] != "d/0" {
		t.Fatalf("snapshot dump %v, want [[d/0]]", p.snapshots)
	}
}

// TestEveryCutHoldsTheWholeRegistry: a cut is the registry's whole state,
// whether or not a dataset changed since the previous one.
func TestEveryCutHoldsTheWholeRegistry(t *testing.T) {
	reg := NewRegistry()
	p := &fakePersister{}
	reg.SetPersister(p)
	for _, ds := range []string{"a", "b"} {
		if err := reg.Put(ds, persistSummary(0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := reg.Put("b", persistSummary(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := reg.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	want := [][]string{{"a/0", "b/0"}, {"a/0", "b/0", "b/1"}, {"a/0", "b/0", "b/1"}}
	if fmt.Sprint(p.snapshots) != fmt.Sprint(want) {
		t.Fatalf("snapshots %v, want %v", p.snapshots, want)
	}
}

// TestSnapshotAfterFailureHoldsEveryDataset: after a failed snapshot, the
// next one holds every dataset — the one registered before the failure
// and the one registered after it.
func TestSnapshotAfterFailureHoldsEveryDataset(t *testing.T) {
	reg := NewRegistry()
	p := &fakePersister{}
	reg.SetPersister(p)
	if err := reg.Put("d", persistSummary(0)); err != nil {
		t.Fatal(err)
	}
	p.snapErr = errors.New("disk full")
	if err := reg.Snapshot(); err == nil {
		t.Fatal("snapshot succeeded though the persister failed")
	}
	if err := reg.Put("e", persistSummary(0)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if len(p.snapshots) != 1 || fmt.Sprint(p.snapshots[0]) != fmt.Sprint([]string{"d/0", "e/0"}) {
		t.Fatalf("snapshots after failed attempt = %v, want [[d/0 e/0]]", p.snapshots)
	}
}

// TestPutCtxHandsRequestSpanToPersister: the span in PutCtx's context is
// the parent the persister gets for the append and for the snapshot that
// append makes due, and Put without one passes nil (untraced).
func TestPutCtxHandsRequestSpanToPersister(t *testing.T) {
	reg := NewRegistry()
	p := &fakePersister{due: true}
	reg.SetPersister(p)
	req := trace.New(1).StartSpan("request", trace.SpanContext{})
	if err := reg.PutCtx(trace.ContextWithSpan(context.Background(), req), "d", persistSummary(0)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Put("d", persistSummary(1)); err != nil {
		t.Fatal(err)
	}
	if len(p.appendSpans) != 2 || p.appendSpans[0] != req || p.appendSpans[1] != nil {
		t.Fatalf("append spans %v, want [request span, nil]", p.appendSpans)
	}
	if len(p.snapSpans) != 1 || p.snapSpans[0] != req {
		t.Fatalf("snapshot spans %v, want the request span once", p.snapSpans)
	}
}

// TestExplicitSnapshotIsUntraced: Registry.Snapshot has no request behind
// it and hands the persister a nil span.
func TestExplicitSnapshotIsUntraced(t *testing.T) {
	reg := NewRegistry()
	p := &fakePersister{}
	reg.SetPersister(p)
	if err := reg.Put("d", persistSummary(0)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if len(p.snapSpans) != 1 || p.snapSpans[0] != nil {
		t.Fatalf("snapshot spans %v, want one nil", p.snapSpans)
	}
	if len(p.snapshots) != 1 || len(p.snapshots[0]) != 1 || p.snapshots[0][0] != "d/0" {
		t.Fatalf("snapshot images %v, want [[d/0]]", p.snapshots)
	}
}
