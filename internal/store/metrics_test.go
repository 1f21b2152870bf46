package store

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
)

// TestStoreMetrics drives appends, fsyncs, rotations, and a snapshot
// through an instrumented store and checks the summaryd_store_* series
// track the work — both the instrument values and the rendered
// exposition.
func TestStoreMetrics(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(9))
	mreg := obs.NewRegistry()
	reg := server.NewRegistry()
	st, err := Open(dir, Options{SnapshotEvery: -1, SegmentBytes: 512, Fsync: true, Metrics: mreg}, reg.Put)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	reg.SetPersister(st)

	for i := 0; i < 10; i++ {
		spec := specs[i%len(specs)]
		if err := reg.Put(spec.name, randomSummary(rng, spec)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if err := reg.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	if got := st.metrics.walAppends.Value(); got != 10 {
		t.Errorf("wal appends counter = %d, want 10", got)
	}
	if st.metrics.walBytes.Value() == 0 {
		t.Error("wal bytes counter is zero after 10 appends")
	}
	// -fsync times every append's sync.
	if got := st.metrics.fsync.Count(); got != 10 {
		t.Errorf("fsync histogram count = %d, want 10", got)
	}
	// The 512-byte segment cap forces mid-stream rotations, and the
	// snapshot seals the live segment too.
	if st.metrics.rotations.Value() == 0 {
		t.Error("rotation counter is zero despite a 512-byte segment cap")
	}
	if got := st.metrics.snapshots.Value(); got != 1 {
		t.Errorf("snapshot counter = %d, want 1", got)
	}
	if got := st.metrics.snapDur.Count(); got != 1 {
		t.Errorf("snapshot duration histogram count = %d, want 1", got)
	}

	var slots int
	if err := reg.Dump(func(string, core.Summary) error { slots++; return nil }); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	mreg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	text := rec.Body.String()
	for _, want := range []string{
		"# TYPE summaryd_store_wal_appends_total counter",
		"summaryd_store_wal_appends_total 10",
		"# TYPE summaryd_store_wal_append_bytes_total counter",
		"# TYPE summaryd_store_fsync_seconds histogram",
		"summaryd_store_fsync_seconds_count 10",
		"# TYPE summaryd_store_segment_rotations_total counter",
		"# TYPE summaryd_store_snapshots_total counter",
		"summaryd_store_snapshots_total 1",
		"# TYPE summaryd_store_snapshot_seconds histogram",
		"# TYPE summaryd_store_sealed_segments gauge",
		"# TYPE summaryd_store_snapshot_entries gauge",
		fmt.Sprintf("summaryd_store_snapshot_entries %d\n", slots),
		"# TYPE summaryd_store_quarantined_files gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// No snapshot-chain or compaction series is exposed.
	for _, gone := range []string{"summaryd_store_snapshot_chain_files", "summaryd_store_compactions_total"} {
		if strings.Contains(text, gone) {
			t.Errorf("exposition still has %s", gone)
		}
	}
	// The snapshot superseded every sealed segment.
	if !strings.Contains(text, "summaryd_store_sealed_segments 0") {
		t.Error("sealed-segments gauge nonzero after a full snapshot")
	}
}

// TestStoreWithoutMetrics pins the nil default: no registry, no
// instruments, every hook a no-op.
func TestStoreWithoutMetrics(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(10))
	reg := server.NewRegistry()
	st, err := Open(dir, Options{}, reg.Put)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	reg.SetPersister(st)
	if err := reg.Put(specs[0].name, randomSummary(rng, specs[0])); err != nil {
		t.Fatalf("put: %v", err)
	}
	if st.metrics.walAppends != nil || st.metrics.fsync != nil {
		t.Error("instruments constructed without a metrics registry")
	}
	if got := st.metrics.walAppends.Value(); got != 0 {
		t.Errorf("nil counter reads %d", got)
	}
}
