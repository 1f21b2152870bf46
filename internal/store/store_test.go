package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/internal/testutil"
)

// The store implements the registry's persistence seam.
var _ server.Persister = (*Store)(nil)

// datasetSpec pins the per-dataset invariants (kind, salt) the registry
// enforces, so random operation sequences never trip the
// compatibility checks.
type datasetSpec struct {
	name string
	kind string
	salt uint64
}

var specs = []datasetSpec{
	{name: "alpha", kind: "pps", salt: 101},
	{name: "beta", kind: "bottomk", salt: 202},
	{name: "gamma", kind: "set", salt: 303},
}

// randomSummary draws a small random summary matching spec for a random
// instance in [0, 4).
func randomSummary(rng *rand.Rand, spec datasetSpec) core.Summary {
	return randomSummaryAt(rng, spec, rng.Intn(4))
}

// randomSummaryAt draws a small random summary matching spec for the
// given instance.
func randomSummaryAt(rng *rand.Rand, spec datasetSpec, instance int) core.Summary {
	summ := core.NewSummarizer(spec.salt)
	n := 1 + rng.Intn(40)
	in := make(dataset.Instance, n)
	for len(in) < n {
		in[dataset.Key(rng.Uint64())] = float64(1 + rng.Intn(1000))
	}
	switch spec.kind {
	case "pps":
		return summ.SummarizePPS(instance, in, 1+rng.Float64()*500)
	case "bottomk":
		return summ.SummarizeBottomK(instance, in, 1+rng.Intn(10), sampling.EXP{})
	case "set":
		members := make(map[dataset.Key]bool, len(in))
		for h := range in {
			members[h] = true
		}
		return summ.SummarizeSet(instance, members, 0.5)
	}
	panic("unknown kind")
}

// image renders a registry (or shadow state) as v2 bytes per (dataset,
// instance): the bit-for-bit comparison currency of every recovery test.
// Encoding equality implies query equality — v2 bytes determine the
// summary and its randomization completely, and queries are
// deterministic functions of both.
func image(t *testing.T, dump func(emit func(string, core.Summary) error) error) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	err := dump(func(ds string, s core.Summary) error {
		data, err := core.EncodeSummary(s, 2)
		if err != nil {
			return err
		}
		out[fmt.Sprintf("%s/%d", ds, s.InstanceID())] = data
		return nil
	})
	if err != nil {
		t.Fatalf("dumping image: %v", err)
	}
	return out
}

// shadow is the test's independent model of registry state.
type shadow map[string]map[int]core.Summary

func (sh shadow) put(ds string, s core.Summary) {
	if sh[ds] == nil {
		sh[ds] = make(map[int]core.Summary)
	}
	sh[ds][s.InstanceID()] = s
}

func (sh shadow) clone() shadow {
	out := make(shadow, len(sh))
	for ds, m := range sh {
		out[ds] = make(map[int]core.Summary, len(m))
		for id, s := range m {
			out[ds][id] = s
		}
	}
	return out
}

func (sh shadow) dump(emit func(string, core.Summary) error) error {
	for ds, m := range sh {
		for _, s := range m {
			if err := emit(ds, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// mustMatch asserts two images are identical.
func mustMatch(t *testing.T, what string, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d summaries, want %d", what, len(got), len(want))
	}
	for key, wb := range want {
		gb, ok := got[key]
		if !ok {
			t.Fatalf("%s: missing %s", what, key)
		}
		if !bytes.Equal(gb, wb) {
			t.Fatalf("%s: %s differs after recovery (%d vs %d bytes)", what, key, len(gb), len(wb))
		}
	}
}

// reopen replays dir into a fresh registry and returns it with its store,
// wired exactly as summaryd wires them: persister attached after replay,
// dirty tracking narrowed to the datasets with live WAL records.
func reopen(t *testing.T, dir string, opts Options) (*server.Registry, *Store) {
	t.Helper()
	reg := server.NewRegistry()
	st, err := Open(dir, opts, reg.Put)
	if err != nil {
		t.Fatalf("reopening store: %v", err)
	}
	reg.SetPersister(st)
	reg.MarkClean(st.WALDatasets())
	return reg, st
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	reg, st := reopen(t, dir, Options{})

	want := make(shadow)
	for i := 0; i < 25; i++ {
		spec := specs[rng.Intn(len(specs))]
		s := randomSummary(rng, spec)
		if err := reg.Put(spec.name, s); err != nil {
			t.Fatalf("put: %v", err)
		}
		want.put(spec.name, s)
	}
	status := st.Status()
	if status.WALRecords != 25 {
		t.Fatalf("WALRecords = %d, want 25", status.WALRecords)
	}
	if status.WALBytes <= 0 {
		t.Fatalf("WALBytes = %d, want > 0", status.WALBytes)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	reg2, st2 := reopen(t, dir, Options{})
	defer st2.Close()
	mustMatch(t, "round trip", image(t, reg2.Dump), image(t, want.dump))
	status = st2.Status()
	if status.RecoveredDatasets != len(specs) {
		t.Fatalf("RecoveredDatasets = %d, want %d", status.RecoveredDatasets, len(specs))
	}
	// Recovered summaries are distinct (dataset, instance) entries — the
	// registry's contents — not the 25 replayed records (re-puts replace).
	distinct := 0
	for _, m := range want {
		distinct += len(m)
	}
	if status.RecoveredSummaries != int64(distinct) {
		t.Fatalf("RecoveredSummaries = %d, want %d", status.RecoveredSummaries, distinct)
	}
}

func TestSnapshotLifecycle(t *testing.T) {
	// Every store opened here is closed; the snapshot workers must all
	// have exited by the end of the test.
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(2))
	// Automatic snapshots off: every snapshot in this test is an explicit,
	// synchronous Registry.Snapshot, so the lifecycle is deterministic.
	reg, st := reopen(t, dir, Options{SnapshotEvery: -1})

	want := make(shadow)
	put := func(reg *server.Registry, n int) {
		for i := 0; i < n; i++ {
			spec := specs[i%len(specs)]
			s := randomSummary(rng, spec)
			if err := reg.Put(spec.name, s); err != nil {
				t.Fatalf("put: %v", err)
			}
			want.put(spec.name, s)
		}
	}
	put(reg, 8)
	if err := reg.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	put(reg, 2)
	// The snapshot covered the first 8 records; the WAL holds the 2 since.
	status := st.Status()
	if status.WALRecords != 2 {
		t.Fatalf("WALRecords = %d, want 2 (snapshot did not supersede the log)", status.WALRecords)
	}
	if status.SnapshotEntries == 0 || status.LastSnapshot == "" || status.SnapshotChain != 1 {
		t.Fatalf("snapshot status not recorded: %+v", status)
	}
	st.Close()

	reg2, st2 := reopen(t, dir, Options{SnapshotEvery: -1})
	mustMatch(t, "snapshot+wal", image(t, reg2.Dump), image(t, want.dump))

	// An explicit snapshot (the shutdown path) supersedes the whole WAL —
	// including with automatic snapshots disabled, the disabled-auto bug
	// this release fixes.
	if err := reg2.Snapshot(); err != nil {
		t.Fatalf("explicit snapshot: %v", err)
	}
	status = st2.Status()
	if status.WALRecords != 0 || status.WALBytes != 0 {
		t.Fatalf("WAL not superseded after snapshot: %+v", status)
	}
	st2.Close()

	reg3, st3 := reopen(t, dir, Options{})
	defer st3.Close()
	mustMatch(t, "snapshot only", image(t, reg3.Dump), image(t, want.dump))
	if got := st3.Status().WALRecords; got != 0 {
		t.Fatalf("WALRecords after snapshot-only recovery = %d, want 0", got)
	}
}

func TestAutomaticSnapshotsRunInBackground(t *testing.T) {
	// Close must stop the snapshot worker, not abandon it.
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	reg, st := reopen(t, dir, Options{SnapshotEvery: 4})
	want := make(shadow)
	for i := 0; i < 10; i++ {
		spec := specs[i%len(specs)]
		s := randomSummary(rng, spec)
		if err := reg.Put(spec.name, s); err != nil {
			t.Fatalf("put: %v", err)
		}
		want.put(spec.name, s)
	}
	// The 4th put queued a background snapshot; poll until the worker has
	// committed one (the only nondeterminism is its scheduling).
	deadline := time.Now().Add(10 * time.Second)
	for {
		status := st.Status()
		if status.SnapshotEntries > 0 && status.LastSnapshot != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background snapshot never committed: %+v", status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st.Close()
	reg2, st2 := reopen(t, dir, Options{})
	defer st2.Close()
	mustMatch(t, "background snapshot", image(t, reg2.Dump), image(t, want.dump))
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	reg, st := reopen(t, dir, Options{})
	want := make(shadow)
	for i := 0; i < 5; i++ {
		spec := specs[0]
		s := randomSummary(rng, spec)
		if err := reg.Put(spec.name, s); err != nil {
			t.Fatalf("put: %v", err)
		}
		want.put(spec.name, s)
	}
	st.Close()

	// A crash mid-append: garbage where the sixth record would be, in the
	// live (final) segment — the one place torn bytes are legitimate.
	walPath := filepath.Join(dir, segmentName(1))
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x37, 0xCB, 0x53, 0x00, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sizeBefore := fileSize(t, walPath)

	reg2, st2 := reopen(t, dir, Options{})
	mustMatch(t, "torn tail", image(t, reg2.Dump), image(t, want.dump))
	if got := fileSize(t, walPath); got >= sizeBefore {
		t.Fatalf("torn tail not truncated: %d >= %d", got, sizeBefore)
	}

	// Appends continue cleanly from the truncated boundary.
	s := randomSummary(rng, specs[0])
	if err := reg2.Put(specs[0].name, s); err != nil {
		t.Fatalf("put after truncation: %v", err)
	}
	want.put(specs[0].name, s)
	st2.Close()

	reg3, st3 := reopen(t, dir, Options{})
	defer st3.Close()
	mustMatch(t, "append after truncation", image(t, reg3.Dump), image(t, want.dump))
}

func TestSnapshotAtomicity(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(4))
	reg, st := reopen(t, dir, Options{})
	want := make(shadow)
	put := func(n int) {
		for i := 0; i < n; i++ {
			spec := specs[rng.Intn(len(specs))]
			s := randomSummary(rng, spec)
			if err := reg.Put(spec.name, s); err != nil {
				t.Fatalf("put: %v", err)
			}
			want.put(spec.name, s)
		}
	}
	put(6)
	if err := reg.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	put(4) // these live only in the WAL

	// Simulate a crash between temp-file write and rename: the new image
	// is fully written but never promoted.
	tmp, entries, err := writeSnapshotTemp(dir, reg.Dump)
	if err != nil {
		t.Fatalf("writeSnapshotTemp: %v", err)
	}
	if entries == 0 {
		t.Fatal("temp snapshot wrote no entries")
	}
	snapBefore, err := os.ReadFile(filepath.Join(dir, snapName(1)))
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Recovery must use the previous snapshot (untouched by the aborted
	// attempt) plus the WAL, and must discard the stray temp file.
	reg2, st2 := reopen(t, dir, Options{})
	defer st2.Close()
	mustMatch(t, "aborted snapshot", image(t, reg2.Dump), image(t, want.dump))
	snapAfter, err := os.ReadFile(filepath.Join(dir, snapName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapBefore, snapAfter) {
		t.Fatal("previous snapshot was modified by the aborted attempt")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stray snapshot temp file survived recovery: %v", err)
	}
}

func TestSnapshotCorruptionIsAnError(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))
	reg, st := reopen(t, dir, Options{})
	if err := reg.Put("alpha", randomSummary(rng, specs[0])); err != nil {
		t.Fatal(err)
	}
	if err := reg.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Flip a payload byte: snapshots are renamed atomically, so damage is
	// disk corruption and replay must refuse rather than guess.
	path := filepath.Join(dir, snapName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}, func(string, core.Summary) error { return nil }); err == nil {
		t.Fatal("Open accepted a corrupted snapshot")
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func TestOverlongDatasetNameRefusedAtWriteTime(t *testing.T) {
	// Replay hard-fails on a checksummed record whose dataset name exceeds
	// maxDatasetName, so the write side must refuse such a name before it
	// reaches the log — otherwise one oversized POST would be acknowledged
	// and then crash-loop every subsequent Open.
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(9))
	reg, st := reopen(t, dir, Options{})
	want := make(shadow)
	keep := randomSummary(rng, specs[0])
	if err := reg.Put(specs[0].name, keep); err != nil {
		t.Fatal(err)
	}
	want.put(specs[0].name, keep)

	long := string(bytes.Repeat([]byte("n"), maxDatasetName+1))
	if err := reg.Put(long, randomSummary(rng, specs[0])); err == nil {
		t.Fatal("Put accepted a dataset name longer than maxDatasetName")
	}
	// The rollback must be complete: the registry answers as if the post
	// never happened.
	if _, err := reg.Get(long, nil); !errors.Is(err, server.ErrNotFound) {
		t.Fatalf("overlong dataset survived rollback: err=%v", err)
	}
	// A name exactly at the bound is fine.
	edge := string(bytes.Repeat([]byte("e"), maxDatasetName))
	s := randomSummary(rng, specs[0])
	if err := reg.Put(edge, s); err != nil {
		t.Fatalf("put with max-length name: %v", err)
	}
	want.put(edge, s)
	st.Close()

	// The log holds only refusable-free records, so recovery succeeds and
	// matches the surviving state bit-for-bit.
	reg2, st2 := reopen(t, dir, Options{})
	defer st2.Close()
	mustMatch(t, "after refused overlong name", image(t, reg2.Dump), image(t, want.dump))
}

func TestDirectoryLockExcludesSecondStore(t *testing.T) {
	if !lockEnforced {
		t.Skip("directory locking is advisory (no-op) on this platform")
	}
	dir := t.TempDir()
	_, st := reopen(t, dir, Options{})
	if _, err := Open(dir, Options{}, func(string, core.Summary) error { return nil }); err == nil {
		t.Fatal("second Open on a live directory succeeded; two writers would corrupt the WAL")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Close releases the flock: the directory is usable again.
	_, st2 := reopen(t, dir, Options{})
	st2.Close()
}

func TestSnapshotWALOverlapReplaysIdempotently(t *testing.T) {
	// The crash window between snapshot promotion and WAL truncation: the
	// snapshot holds everything and the WAL still holds everything too.
	// Replay must converge to the same registry (idempotent re-puts) and
	// the recovery report must count recovered summaries, not replayed
	// records.
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(6))
	reg, st := reopen(t, dir, Options{})
	want := make(shadow)
	for i := 0; i < 6; i++ {
		spec := specs[i%len(specs)]
		s := randomSummary(rng, spec)
		if err := reg.Put(spec.name, s); err != nil {
			t.Fatal(err)
		}
		want.put(spec.name, s)
	}
	distinct := 0
	for _, m := range want {
		distinct += len(m)
	}
	// Promote a full snapshot by hand, WITHOUT the WAL truncation that
	// Store.Snapshot would do next — exactly the crash-window state.
	tmp, _, err := writeSnapshotTemp(dir, reg.Dump)
	if err != nil {
		t.Fatal(err)
	}
	if err := promoteSnapshot(dir, tmp, 1); err != nil {
		t.Fatal(err)
	}
	st.Close()

	reg2, st2 := reopen(t, dir, Options{})
	defer st2.Close()
	mustMatch(t, "overlap replay", image(t, reg2.Dump), image(t, want.dump))
	status := st2.Status()
	if status.RecoveredSummaries != int64(distinct) {
		t.Fatalf("RecoveredSummaries = %d, want %d distinct (records were double-counted)",
			status.RecoveredSummaries, distinct)
	}
	if status.RecoveredDatasets != len(want) {
		t.Fatalf("RecoveredDatasets = %d, want %d", status.RecoveredDatasets, len(want))
	}
}

func TestFsyncFailureDoesNotResurrectRecord(t *testing.T) {
	// With -fsync, a Sync failure NACKs the request and the registry rolls
	// back; the frame that already hit the file must be erased, or a
	// restart would resurrect a summary the client was told did not land.
	// A real Sync failure needs a broken disk; instead, verify the
	// truncation arithmetic the recovery depends on: after an append is
	// undone via Truncate(prevEnd), replay sees only the earlier records.
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	reg, st := reopen(t, dir, Options{})
	keep := randomSummary(rng, specs[0])
	if err := reg.Put(specs[0].name, keep); err != nil {
		t.Fatal(err)
	}
	prevEnd := st.live.w.end
	if _, err := st.Append("doomed", randomSummary(rng, specs[0])); err != nil {
		t.Fatal(err)
	}
	// Undo exactly as the Sync-failure path does.
	if err := st.live.f.Truncate(prevEnd); err != nil {
		t.Fatal(err)
	}
	st.live.w.end = prevEnd
	st.Close()

	var got []string
	st2, err := Open(dir, Options{}, func(ds string, s core.Summary) error {
		got = append(got, ds)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st2.Close()
	if len(got) != 1 || got[0] != specs[0].name {
		t.Fatalf("replay found %v, want only [%s]: the unacknowledged record survived", got, specs[0].name)
	}
}

func TestSnapshotFailureSurfacesAndBacksOff(t *testing.T) {
	// Deleting the data dir out from under the store keeps the open WAL
	// fd appendable but makes snapshot temp-file creation fail — a stand-
	// in for quota/permission failures. Puts must keep succeeding (the
	// WAL holds them), the failure must surface in Status, and the next
	// automatic attempt must wait a full interval, not fire per append.
	dir := filepath.Join(t.TempDir(), "sub")
	rng := rand.New(rand.NewSource(8))
	reg, st := reopen(t, dir, Options{SnapshotEvery: 2})
	if err := reg.Put(specs[0].name, randomSummary(rng, specs[0])); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	// Second put trips the due snapshot, which fails; the put succeeds.
	if err := reg.Put(specs[0].name, randomSummary(rng, specs[0])); err != nil {
		t.Fatalf("put with failing snapshot: %v", err)
	}
	status := st.Status()
	if status.SnapshotError == "" {
		t.Fatal("snapshot failure not surfaced in Status")
	}
	// Backoff: the failed attempt reset the interval, so the very next
	// put must not be due again (sinceSnapshot restarted at 0).
	if due, err := st.Append("probe", randomSummary(rng, specs[0])); err != nil || due {
		t.Fatalf("append after failed snapshot: due=%v err=%v (want no immediate retry)", due, err)
	}
	st.Close()
}

func TestSegmentRotationBoundsFiles(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(12))
	opts := Options{SnapshotEvery: -1, SegmentRecords: 2}
	reg, st := reopen(t, dir, opts)
	want := make(shadow)
	for i := 0; i < 7; i++ {
		spec := specs[i%len(specs)]
		s := randomSummary(rng, spec)
		if err := reg.Put(spec.name, s); err != nil {
			t.Fatal(err)
		}
		want.put(spec.name, s)
	}
	// 7 records at 2 per segment: segments 1..3 sealed full, segment 4
	// live with one record.
	status := st.Status()
	if status.WALSegments != 4 || status.WALRecords != 7 {
		t.Fatalf("segments=%d records=%d, want 4/7", status.WALSegments, status.WALRecords)
	}
	if first, last, ok, err := readManifest(dir); err != nil || !ok || first != 1 || last != 4 {
		t.Fatalf("manifest = [%d,%d] ok=%v err=%v, want [1,4]", first, last, ok, err)
	}
	st.Close()

	reg2, st2 := reopen(t, dir, opts)
	defer st2.Close()
	mustMatch(t, "multi-segment recovery", image(t, reg2.Dump), image(t, want.dump))
	if got := st2.Status().WALRecords; got != 7 {
		t.Fatalf("WALRecords after recovery = %d, want 7", got)
	}

	// A snapshot covers every sealed segment: only the fresh live segment
	// survives it, and the manifest window moves past the deleted files.
	if err := reg2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	status = st2.Status()
	if status.WALSegments != 1 || status.WALRecords != 0 {
		t.Fatalf("after snapshot: segments=%d records=%d, want 1/0", status.WALSegments, status.WALRecords)
	}
	segs, _, err := scanSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segment files on disk after snapshot: %v (err=%v), want exactly one", segs, err)
	}
	if first, _, _, _ := readManifest(dir); first != segs[0] {
		t.Fatalf("manifest first=%d does not match surviving segment %d", first, segs[0])
	}
}

func TestSealedSegmentTruncationHardErrors(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(13))
	reg, st := reopen(t, dir, Options{SnapshotEvery: -1, SegmentRecords: 2})
	for i := 0; i < 5; i++ {
		if err := reg.Put(specs[0].name, randomSummary(rng, specs[0])); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Chop bytes off a SEALED segment. It was fsynced before the manifest
	// demoted it, so a tear here is lost acknowledged data — recovery must
	// refuse, not silently truncate like it would on the final segment.
	sealedPath := filepath.Join(dir, segmentName(1))
	size := fileSize(t, sealedPath)
	if err := os.Truncate(sealedPath, size-3); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}, func(string, core.Summary) error { return nil }); err == nil {
		t.Fatal("Open silently accepted a torn sealed segment")
	}
}

func TestOrphanAndMalformedSegmentsQuarantined(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(14))
	reg, st := reopen(t, dir, Options{})
	want := make(shadow)
	s := randomSummary(rng, specs[0])
	if err := reg.Put(specs[0].name, s); err != nil {
		t.Fatal(err)
	}
	want.put(specs[0].name, s)
	st.Close()

	// An out-of-manifest segment (crash between segment creation and
	// manifest update) and an unparsable segment-ish name: both must be
	// moved aside — neither replayed nor deleted nor left to collide.
	orphan := filepath.Join(dir, segmentName(99))
	if err := os.WriteFile(orphan, []byte(segMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	malformed := filepath.Join(dir, "wal-bogus.seg")
	if err := os.WriteFile(malformed, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg2, st2 := reopen(t, dir, Options{})
	defer st2.Close()
	mustMatch(t, "quarantine recovery", image(t, reg2.Dump), image(t, want.dump))
	if got := st2.Status().QuarantinedFiles; got != 2 {
		t.Fatalf("QuarantinedFiles = %d, want 2", got)
	}
	for _, name := range []string{segmentName(99), "wal-bogus.seg"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("%s still in the data dir: %v", name, err)
		}
		if _, err := os.Stat(filepath.Join(dir, quarantineDir, name)); err != nil {
			t.Fatalf("%s not preserved in quarantine: %v", name, err)
		}
	}
}

func TestStrayLegacyFilesQuarantined(t *testing.T) {
	// A "wal" and a "snapshot" file — the names of the single-file layout
	// nothing writes any more — are state no manifest acknowledged. Open
	// succeeds, replays none of it, and moves both to quarantine/, on a
	// fresh directory and on one that already has a manifest alike.
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(15))
	plant := func() {
		t.Helper()
		for _, name := range []string{legacyWALName, legacySnapshotName} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(segMagic+"stray"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := make(shadow)
	for round, when := range []string{"without a manifest", "beside a manifest"} {
		os.RemoveAll(filepath.Join(dir, quarantineDir))
		plant()
		reg, st := reopen(t, dir, Options{})
		mustMatch(t, "stray files "+when, image(t, reg.Dump), image(t, want.dump))
		for _, name := range []string{legacyWALName, legacySnapshotName} {
			if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
				t.Fatalf("%s: %s still in the data directory: %v", when, name, err)
			}
			if _, err := os.Stat(filepath.Join(dir, quarantineDir, name)); err != nil {
				t.Fatalf("%s: %s not preserved in quarantine: %v", when, name, err)
			}
		}
		if got := st.Status().QuarantinedFiles; got != 2 {
			t.Fatalf("%s: status reports %d quarantined files, want 2", when, got)
		}
		// The store is a normal one afterwards.
		s := randomSummary(rng, specs[round])
		if err := reg.Put(specs[round].name, s); err != nil {
			t.Fatal(err)
		}
		want.put(specs[round].name, s)
		st.Close()
	}
	reg, st := reopen(t, dir, Options{})
	defer st.Close()
	mustMatch(t, "reopen after quarantine", image(t, reg.Dump), image(t, want.dump))
}

func TestAppendsProceedDuringSnapshot(t *testing.T) {
	// The tentpole property: an in-flight snapshot must not block the
	// serving path. The dump blocks on a gate held by the test; appends
	// must complete while it is held.
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(16))
	st, err := Open(dir, Options{SnapshotEvery: -1}, func(string, core.Summary) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 2; i++ {
		if _, err := st.Append(specs[0].name, randomSummary(rng, specs[0])); err != nil {
			t.Fatal(err)
		}
	}
	started := make(chan struct{})
	gate := make(chan struct{})
	snapSum := randomSummary(rng, specs[0])
	dump := func(emit func(string, core.Summary) error) error {
		close(started)
		<-gate
		return emit(specs[0].name, snapSum)
	}
	wait, err := st.SnapshotTraced(nil, dump, func(bool) {}, true)
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker is inside the dump, snapshot in flight

	appended := make(chan error, 1)
	go func() {
		_, err := st.Append(specs[0].name, randomSummary(rng, specs[0]))
		appended <- err
	}()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatalf("append during snapshot: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("append blocked behind an in-flight snapshot")
	}

	close(gate)
	if err := wait(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if got := st.Status().SnapshotChain; got != 1 {
		t.Fatalf("SnapshotChain = %d, want 1", got)
	}
}

func TestSnapshotErrorClearsOnSuccess(t *testing.T) {
	// Regression: the error was sticky — set on failure, never cleared —
	// so /healthz kept paging long after snapshots had recovered. A
	// success must wipe it, both in Status and in the healthz JSON (the
	// field is omitempty, so a healthy store has no key at all).
	dir := filepath.Join(t.TempDir(), "data")
	rng := rand.New(rand.NewSource(17))
	reg, st := reopen(t, dir, Options{SnapshotEvery: -1})
	defer st.Close()
	if err := reg.Put(specs[0].name, randomSummary(rng, specs[0])); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := reg.Snapshot(); err == nil {
		t.Fatal("snapshot succeeded with the data dir gone")
	}
	if st.Status().SnapshotError == "" {
		t.Fatal("failed snapshot left no error in Status")
	}
	srv := server.New(reg, engine.Config{}, server.WithStoreStatus(st.Status))
	if !healthzHasSnapshotError(t, srv) {
		t.Fatal("healthz hides the snapshot error while degraded")
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := reg.Put(specs[0].name, randomSummary(rng, specs[0])); err != nil {
		t.Fatal(err)
	}
	if err := reg.Snapshot(); err != nil {
		t.Fatalf("snapshot after recovery: %v", err)
	}
	if got := st.Status().SnapshotError; got != "" {
		t.Fatalf("SnapshotError still %q after a successful snapshot", got)
	}
	if healthzHasSnapshotError(t, srv) {
		t.Fatal("healthz still reports snapshot_error after a successful snapshot")
	}
}

// healthzHasSnapshotError probes GET /healthz and reports whether the
// store object carries a snapshot_error key.
func healthzHasSnapshotError(t *testing.T, srv *server.Server) bool {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var raw struct {
		Store map[string]json.RawMessage `json:"store"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if raw.Store == nil {
		t.Fatal("healthz has no store object")
	}
	_, ok := raw.Store["snapshot_error"]
	return ok
}

func TestIncrementalSnapshotsCoverOnlyDirtyDatasets(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(18))
	reg, st := reopen(t, dir, Options{SnapshotEvery: -1})
	want := make(shadow)
	for i := 0; i < 2; i++ {
		for _, spec := range specs[:2] { // alpha and beta
			s := randomSummary(rng, spec)
			if err := reg.Put(spec.name, s); err != nil {
				t.Fatal(err)
			}
			want.put(spec.name, s)
		}
	}
	if err := reg.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Only beta mutates; the second chain file must hold beta alone.
	s := randomSummary(rng, specs[1])
	if err := reg.Put(specs[1].name, s); err != nil {
		t.Fatal(err)
	}
	want.put(specs[1].name, s)
	if err := reg.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := st.Status().SnapshotChain; got != 2 {
		t.Fatalf("SnapshotChain = %d, want 2", got)
	}
	chainDatasets := make(map[string]int)
	scan, err := verifyFile(dir, fileSpec{chainFile, 2}, 0, &window{})
	if err != nil {
		t.Fatalf("reading chain file 2: %v", err)
	}
	for slot := range scan.slots {
		chainDatasets[slot.dataset]++
	}
	if len(chainDatasets) != 1 || chainDatasets[specs[1].name] != len(want[specs[1].name]) {
		t.Fatalf("chain file 2 holds %v, want only %s with all %d instances",
			chainDatasets, specs[1].name, len(want[specs[1].name]))
	}
	st.Close()

	// Reopen loses nothing and rewrites nothing: bounding the chain is the
	// background writer's job, not something to wait for before serving.
	reg2, st2 := reopen(t, dir, Options{})
	defer st2.Close()
	mustMatch(t, "chain recovery", image(t, reg2.Dump), image(t, want.dump))
	if got := st2.Status().SnapshotChain; got != 2 {
		t.Fatalf("SnapshotChain after reopen = %d, want 2 (preserved)", got)
	}
}

func TestSnapshotChainCompactsAtRuntime(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(19))
	reg, st := reopen(t, dir, Options{SnapshotEvery: -1})
	want := make(shadow)
	// One more snapshot than the chain bound: the last one must fold the
	// whole chain into a single file instead of growing it without limit.
	for i := 0; i <= maxSnapshotChain; i++ {
		spec := specs[i%len(specs)]
		s := randomSummary(rng, spec)
		if err := reg.Put(spec.name, s); err != nil {
			t.Fatal(err)
		}
		want.put(spec.name, s)
		if err := reg.Snapshot(); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
	}
	if got := st.Status().SnapshotChain; got != 1 {
		t.Fatalf("SnapshotChain = %d, want 1 after compaction", got)
	}
	snaps, _, err := scanSnapshots(dir)
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshot files on disk: %v (err=%v), want exactly one", snaps, err)
	}
	st.Close()
	reg2, st2 := reopen(t, dir, Options{})
	defer st2.Close()
	mustMatch(t, "compacted recovery", image(t, reg2.Dump), image(t, want.dump))
}
