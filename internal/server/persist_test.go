package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/pkg/api"
)

// fakePersister records appends and can be told to fail, to test the
// registry's persistence contract without disk. Its Snapshot runs the
// dump and commit synchronously, inline under the registry lock — the
// most hostile legal schedule for the commit callback, which the
// Persister contract requires to be safe anywhere.
type fakePersister struct {
	appended  []string // "dataset/instance" in append order
	failNext  error
	due       bool
	snapErr   error      // next Snapshot fails (commit(false)) with this
	snapshots [][]string // dump contents per snapshot call
}

func (p *fakePersister) Append(ds string, s core.Summary) (bool, error) {
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

func (p *fakePersister) Snapshot(dump func(emit func(string, core.Summary) error) error, commit func(ok bool), syncWait bool) (func() error, error) {
	if p.snapErr != nil {
		err := p.snapErr
		p.snapErr = nil
		commit(false)
		return nil, err
	}
	var image []string
	if err := dump(func(ds string, s core.Summary) error {
		image = append(image, fmt.Sprintf("%s/%d", ds, s.InstanceID()))
		return nil
	}); err != nil {
		commit(false)
		return nil, err
	}
	p.snapshots = append(p.snapshots, image)
	commit(true)
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
	if reg.Count() != 0 {
		t.Fatalf("failed Put left %d datasets behind", reg.Count())
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

func snapshotImages(t *testing.T, p *fakePersister) [][]string {
	t.Helper()
	return p.snapshots
}

func TestSnapshotCutsAreIncremental(t *testing.T) {
	reg := NewRegistry()
	p := &fakePersister{}
	reg.SetPersister(p)
	for _, ds := range []string{"a", "b"} {
		if err := reg.Put(ds, persistSummary(0)); err != nil {
			t.Fatal(err)
		}
	}
	// First snapshot covers everything.
	if err := reg.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Only b mutates; the next cut must contain b alone — and it must
	// contain ALL of b's summaries, not just the new instance, because
	// chain files supersede by (dataset, instance) entry.
	if err := reg.Put("b", persistSummary(1)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Nothing dirty: the cut is empty.
	if err := reg.Snapshot(); err != nil {
		t.Fatal(err)
	}
	got := snapshotImages(t, p)
	want := [][]string{{"a/0", "b/0"}, {"b/0", "b/1"}, nil}
	if len(got) != len(want) {
		t.Fatalf("snapshots %v, want %v", got, want)
	}
	for i := range want {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("snapshot %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFailedSnapshotKeepsDatasetsDirty(t *testing.T) {
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
	// commit(false) must have left d dirty: the next cut re-covers it.
	if err := reg.Snapshot(); err != nil {
		t.Fatal(err)
	}
	got := snapshotImages(t, p)
	if len(got) != 1 || fmt.Sprint(got[0]) != fmt.Sprint([]string{"d/0"}) {
		t.Fatalf("snapshots after failed attempt = %v, want [[d/0]]", got)
	}
}

func TestMarkCleanScopesFirstIncrementalCut(t *testing.T) {
	// Recovery replays through Put, marking everything dirty; MarkClean
	// narrows that to the datasets whose records the WAL still holds.
	reg := NewRegistry()
	for _, ds := range []string{"snapped", "walled"} {
		if err := reg.Put(ds, persistSummary(0)); err != nil {
			t.Fatal(err)
		}
	}
	p := &fakePersister{}
	reg.SetPersister(p)
	reg.MarkClean([]string{"walled"})
	if err := reg.Snapshot(); err != nil {
		t.Fatal(err)
	}
	got := snapshotImages(t, p)
	if len(got) != 1 || fmt.Sprint(got[0]) != fmt.Sprint([]string{"walled/0"}) {
		t.Fatalf("first cut after MarkClean = %v, want [[walled/0]]", got)
	}
	// A dataset that mutates after MarkClean is dirty regardless.
	if err := reg.Put("snapped", persistSummary(1)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Snapshot(); err != nil {
		t.Fatal(err)
	}
	got = snapshotImages(t, p)
	if len(got) != 2 || fmt.Sprint(got[1]) != fmt.Sprint([]string{"snapped/0", "snapped/1"}) {
		t.Fatalf("second cut = %v, want [snapped/0 snapped/1]", got)
	}
}
