package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/server"
	"repro/pkg/api"
)

// layered is a data directory in which one slot, alpha/0, has a record in
// every kind of file recovery reads:
//
//	snap-000001.snap   alpha/0 v1, beta/1 b1
//	snap-000002.snap   alpha/0 v2, gamma/2 g1
//	sealed segment A   alpha/0 v3
//	sealed segment B   gamma/2 g2
//	live segment C     alpha/0 v4
//
// so alpha's only record in A and gamma's only record in snapshot 2 are
// superseded, beta lives in snapshot 1 alone, and 4 of the 7 records are
// dead. The two snapshots are a chain of partial images, which no writer
// leaves; recovery reads it as it reads the two whole images a crash
// between snapshot promotion and removal leaves, so the chain lets one
// directory put a superseded record in every kind of file.
type layered struct {
	dir                string
	v1, v2, v3, v4     core.Summary // alpha/0, oldest first
	b1, g1, g2         core.Summary
	sealedA, sealedB   string // paths
	live, snap1, snap2 string
}

func buildLayered(t *testing.T) layered {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	alpha, beta, gamma := specs[0], specs[1], specs[2]
	l := layered{
		dir: t.TempDir(),
		v1:  randomSummaryAt(rng, alpha, 0), v2: randomSummaryAt(rng, alpha, 0),
		v3: randomSummaryAt(rng, alpha, 0), v4: randomSummaryAt(rng, alpha, 0),
		b1: randomSummaryAt(rng, beta, 1),
		g1: randomSummaryAt(rng, gamma, 2), g2: randomSummaryAt(rng, gamma, 2),
	}
	// One record per segment: every put after a cut's first rotates.
	reg, st := reopen(t, l.dir, Options{SnapshotEvery: -1, SegmentBytes: oneRecordPerSegment})
	put := func(spec datasetSpec, s core.Summary) {
		t.Helper()
		if err := reg.Put(spec.name, s); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := func() {
		t.Helper()
		if err := reg.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	l.snap1, l.snap2 = filepath.Join(l.dir, snapName(1)), filepath.Join(l.dir, snapName(2))
	put(alpha, l.v1)
	put(beta, l.b1)
	snapshot()
	snap1, err := os.ReadFile(l.snap1)
	if err != nil {
		t.Fatal(err)
	}
	put(alpha, l.v2)
	put(gamma, l.g1)
	snapshot()
	// Snapshot 2 holds the whole registry and snapshot 1 is gone; put back
	// snapshot 1, and make snapshot 2 hold only what changed since.
	if err := os.WriteFile(l.snap1, snap1, 0o644); err != nil {
		t.Fatal(err)
	}
	tmp, _, err := writeSnapshotTemp(l.dir, func(emit func(string, core.Summary) error) error {
		if err := emit(alpha.name, l.v2); err != nil {
			return err
		}
		return emit(gamma.name, l.g1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := promoteSnapshot(l.dir, tmp, 2); err != nil {
		t.Fatal(err)
	}
	put(alpha, l.v3)
	put(gamma, l.g2)
	put(alpha, l.v4)
	first, last, ok, err := readManifest(l.dir)
	if err != nil || !ok || last-first != 2 {
		t.Fatalf("manifest [%d,%d] ok=%v err=%v, want three segments", first, last, ok, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	l.sealedA, l.sealedB = filepath.Join(l.dir, segmentName(first)), filepath.Join(l.dir, segmentName(first+1))
	l.live = filepath.Join(l.dir, segmentName(last))
	return l
}

// flipPayloadByte corrupts one byte inside the payload of a file's first
// record.
func flipPayloadByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[magicLen+recordHeaderLen+10] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLastRecordWins recovers the layered directory as it is and damaged:
// whichever files a slot has records in, the last one in log order is the
// one recovered and the only one applied; a torn live record does not
// take the record it would have superseded with it; and a corrupt record
// fails Open even when a later record supersedes it — every frame is
// verified, not only the survivors.
func TestLastRecordWins(t *testing.T) {
	type applied struct {
		dataset  string
		instance int
	}
	cases := []struct {
		name    string
		damage  func(t *testing.T, l layered)
		alpha   func(l layered) core.Summary // the alpha/0 that must be recovered
		order   []applied
		status  api.StoreStatus
		dead    int64
		wantErr []string
	}{
		{
			name:   "intact: the live record beats both snapshots and the sealed segment",
			damage: func(*testing.T, layered) {},
			alpha:  func(l layered) core.Summary { return l.v4 },
			order:  []applied{{"beta", 1}, {"gamma", 2}, {"alpha", 0}},
			status: api.StoreStatus{WALRecords: 3, WALSegments: 3, SnapshotEntries: 3, RecoveredDatasets: 3, RecoveredSummaries: 3},
			dead:   4,
		},
		{
			name: "torn live tail: the sealed record it would have superseded stays live",
			damage: func(t *testing.T, l layered) {
				if err := os.Truncate(l.live, fileSize(t, l.live)-3); err != nil {
					t.Fatal(err)
				}
			},
			alpha:  func(l layered) core.Summary { return l.v3 },
			order:  []applied{{"beta", 1}, {"alpha", 0}, {"gamma", 2}},
			status: api.StoreStatus{WALRecords: 2, WALSegments: 3, SnapshotEntries: 3, RecoveredDatasets: 3, RecoveredSummaries: 3},
			dead:   3,
		},
		{
			name:    "byte flip in a superseded snapshot record",
			damage:  func(t *testing.T, l layered) { flipPayloadByte(t, l.snap1) }, // alpha/0 v1
			wantErr: []string{"store: snapshot ", snapName(1), "store: record 1: checksum mismatch"},
		},
		{
			name:    "byte flip in a superseded record of the newest snapshot",
			damage:  func(t *testing.T, l layered) { flipPayloadByte(t, l.snap2) }, // alpha/0 v2
			wantErr: []string{"store: snapshot ", snapName(2), "store: record 1: checksum mismatch"},
		},
		{
			name:    "byte flip in a superseded sealed record",
			damage:  func(t *testing.T, l layered) { flipPayloadByte(t, l.sealedA) }, // alpha/0 v3
			wantErr: []string{"store: sealed WAL segment ", "store: record 1: checksum mismatch"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := buildLayered(t)
			tc.damage(t, l)
			reg := server.NewRegistry()
			var order []applied
			st, err := Open(l.dir, Options{}, func(ds string, s core.Summary) error {
				order = append(order, applied{ds, s.InstanceID()})
				return reg.Put(ds, s)
			})
			if tc.wantErr != nil {
				if err == nil {
					st.Close()
					t.Fatal("Open accepted the directory")
				}
				for _, want := range tc.wantErr {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error %q does not contain %q", err, want)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			want := make(shadow)
			want.put("alpha", tc.alpha(l))
			want.put("beta", l.b1)
			want.put("gamma", l.g2)
			mustMatch(t, "layered", image(t, reg.Dump), image(t, want.dump))
			if !reflect.DeepEqual(order, tc.order) {
				t.Errorf("applied %v, want %v: one apply per slot, in log order", order, tc.order)
			}
			got := st.Status()
			tc.status.Dir, tc.status.LastSnapshot, tc.status.WALBytes = got.Dir, got.LastSnapshot, got.WALBytes
			if got != tc.status {
				t.Errorf("status\n got %+v\nwant %+v", got, tc.status)
			}
			if r := st.Recovery(); r.Applied != 3 || r.Superseded != tc.dead {
				t.Errorf("recovery applied %d superseded %d, want 3 and %d", r.Applied, r.Superseded, tc.dead)
			}
			if size := fileSize(t, l.live); size != st.live.w.end {
				t.Errorf("live segment is %d bytes with its writer at %d: the torn tail was not cut off", size, st.live.w.end)
			}
		})
	}
}

// spliceFirstWire replaces the summary in a file's first record with what
// edit makes of it, and frames and checksums the record again, so it stays
// validly framed.
func spliceFirstWire(t *testing.T, path string, edit func(wire []byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	end := magicLen + recordHeaderLen + int(binary.LittleEndian.Uint32(data[magicLen:]))
	dataset, wire, ok := splitPayload(data[magicLen+recordHeaderLen : end])
	if !ok {
		t.Fatalf("%s: first record has no dataset name", path)
	}
	payload := append(binary.AppendUvarint(nil, uint64(len(dataset))), dataset...)
	payload = append(payload, edit(wire)...)
	out := binary.LittleEndian.AppendUint32([]byte(data[:magicLen:magicLen]), uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crcTable))
	out = append(append(out, payload...), data[end:]...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// refusedFiles are the files of the layered directory whose first record
// the refusal tests rewrite: each kind of file replayed strictly.
var refusedFiles = []struct {
	name string
	path func(l layered) string
	kind string
}{
	{"snapshot file", func(l layered) string { return l.snap1 }, "store: snapshot "},
	{"sealed segment", func(l layered) string { return l.sealedA }, "store: sealed WAL segment "},
}

// mustRefuseOpen fails t unless Open refuses the layered directory with an
// error naming the file of kind at path, its first record's failed decode
// and the decoder's refusal, and leaves every byte and modification time
// of the directory as it found them.
func mustRefuseOpen(t *testing.T, l layered, path, kind, refuse string) {
	t.Helper()
	before := dirListing(t, l.dir)
	st, err := Open(l.dir, Options{}, func(string, core.Summary) error { return nil })
	if err == nil {
		st.Close()
		t.Fatal("Open accepted the record")
	}
	for _, want := range []string{kind, path + ": store: record 1: checksummed payload failed to decode", refuse} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
	if after := dirListing(t, l.dir); !reflect.DeepEqual(after, before) {
		t.Errorf("a refused Open changed the directory:\nbefore %v\nafter  %v", before, after)
	}
}

// TestOpenRefusesCoordinatedRecord: a snapshot file or a sealed segment whose
// record is validly framed but holds a coordinated summary, or a summary of
// kind tag 4, fails Open loudly, naming the file and the decoder's refusal —
// nothing here serves such a summary, and there is no code to migrate it —
// and Open leaves every byte and modification time of the directory as it
// found them.
func TestOpenRefusesCoordinatedRecord(t *testing.T) {
	for _, m := range []struct {
		name    string
		off     int // the v2 byte rewritten in the file's first record, a pps summary
		was, to byte
		refuse  string
	}{
		// Flag bit 0: the bit earlier writers set on a coordinated
		// (shared-seed) summary.
		{"", 4, 0x00, 0x01, "core: decoding v2 summary: coordinated (shared-seed) summaries are not supported"},
		// The kind byte: tag 4 is no kind any decoder knows.
		{", kind tag 4", 3, 0x01, 0x04, "core: unknown v2 summary kind tag 4"},
	} {
		for _, tc := range refusedFiles {
			t.Run(tc.name+m.name, func(t *testing.T) {
				l := buildLayered(t)
				path := tc.path(l)
				spliceFirstWire(t, path, func(wire []byte) []byte {
					if wire[m.off] != m.was {
						t.Fatalf("%s: first record's v2 byte %d is not %#x", path, m.off, m.was)
					}
					wire[m.off] = m.to
					return wire
				})
				mustRefuseOpen(t, l, path, tc.kind, m.refuse)
			})
		}
	}
}

// TestOpenRefusesV1Record: a snapshot file or a sealed segment whose first
// record is validly framed but holds its summary as v1 JSON fails Open like
// any record that does not decode: the store writes every record as v2,
// and replay reads nothing else.
func TestOpenRefusesV1Record(t *testing.T) {
	for _, tc := range refusedFiles {
		t.Run(tc.name, func(t *testing.T) {
			l := buildLayered(t)
			path := tc.path(l)
			spliceFirstWire(t, path, func(wire []byte) []byte {
				sum, err := core.DecodeStoredSummary(wire)
				if err != nil {
					t.Fatal(err)
				}
				v1, err := core.EncodeSummary(sum, 1)
				if err != nil {
					t.Fatal(err)
				}
				return v1
			})
			mustRefuseOpen(t, l, path, tc.kind, "core: decoding v2 summary: bad magic")
		})
	}
}

// dirListing is every file of a directory tree with its bytes and
// modification time.
func dirListing(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		entry := fmt.Sprintf("%v %d %v", info.Mode(), info.Size(), info.ModTime().UnixNano())
		if info.Mode().IsRegular() {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			entry += " " + string(data)
		}
		out[path] = entry
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestVerifyDirOnlyReads runs phase 1 over a read-only directory that
// needs every repair recovery can make — a torn live tail, a segment past
// the manifest, unparsable names, a segment a snapshot superseded — and
// checks it reports them all and touches nothing: it is the whole of what
// an offline check of a data directory has to run.
func TestVerifyDirOnlyReads(t *testing.T) {
	l := buildLayered(t)
	first, last, _, err := readManifest(l.dir)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(l.dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	liveBytes, err := os.ReadFile(l.live)
	if err != nil {
		t.Fatal(err)
	}
	write(segmentName(last), append(liveBytes, 0x13, 0x37, 0xCB))
	write(segmentName(last+5), []byte(segMagic))
	write(segmentName(first-1), []byte(segMagic))
	write("wal-bogus.seg", []byte("junk"))
	write("snap-bogus.snap", []byte("junk"))

	// Permissions stop a stray write when the tests do not run as root;
	// the listing comparison catches one when they do.
	for path := range dirListing(t, l.dir) {
		mode := os.FileMode(0o444)
		if path == l.dir {
			mode = 0o555
		}
		if err := os.Chmod(path, mode); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { os.Chmod(l.dir, 0o755) })
	before := dirListing(t, l.dir)

	rec, err := verifyDir(l.dir, 2, nil)
	if err != nil {
		t.Fatalf("verifyDir on a read-only directory: %v", err)
	}
	if after := dirListing(t, l.dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("verifyDir changed the directory:\nbefore %v\nafter  %v", before, after)
	}
	sort.Strings(rec.stray)
	if want := []string{"snap-bogus.snap", segmentName(last + 5), "wal-bogus.seg"}; !reflect.DeepEqual(rec.stray, want) {
		t.Errorf("stray %v, want %v", rec.stray, want)
	}
	if want := []string{segmentName(first - 1)}; !reflect.DeepEqual(rec.stale, want) {
		t.Errorf("stale %v, want %v", rec.stale, want)
	}
	live := rec.files[len(rec.files)-1]
	if live.kind != liveSegment || live.records != 1 || magicLen+live.valid != int64(len(liveBytes)) || live.size != int64(len(liveBytes))+3 {
		t.Errorf("live segment scan %+v: want 1 record, %d valid bytes of %d", live, len(liveBytes), len(liveBytes)+3)
	}
	if len(rec.index) != 3 || rec.records != 7 || rec.snapEntries != 3 {
		t.Errorf("index of %d slots over %d records, %d in the snapshots; want 3, 7, 3", len(rec.index), rec.records, rec.snapEntries)
	}
}

// buildScenario writes a directory shaped like the one the end-to-end
// benchmark restarts on: one snapshot and a live segment holding every
// slot twice, so that two records in three are superseded.
// Every summary holds entries keys. It returns the slot count and the
// bytes of one round of records.
func buildScenario(tb testing.TB, dir string, datasets, instances, entries int) (slots int, roundBytes int64) {
	tb.Helper()
	sums := benchSummaries(instances, instances*entries)
	round := func(emit func(string, core.Summary) error) error {
		for d := 0; d < datasets; d++ {
			for _, s := range sums {
				if err := emit(fmt.Sprintf("bench%02d", d), s); err != nil {
					return err
				}
			}
		}
		return nil
	}
	st, err := Open(dir, Options{SnapshotEvery: -1}, func(string, core.Summary) error { return nil })
	if err != nil {
		tb.Fatal(err)
	}
	wait, err := st.SnapshotTraced(nil, round, true)
	if err != nil {
		tb.Fatal(err)
	}
	if err := wait(); err != nil {
		tb.Fatal(err)
	}
	for twice := 0; twice < 2; twice++ {
		if err := round(func(ds string, s core.Summary) error {
			_, err := st.Append(ds, s)
			return err
		}); err != nil {
			tb.Fatal(err)
		}
	}
	status := st.Status()
	if err := st.Close(); err != nil {
		tb.Fatal(err)
	}
	slots = datasets * instances
	if status.SnapshotEntries != int64(slots) || status.WALSegments != 1 || status.WALRecords != int64(2*slots) {
		tb.Fatalf("scenario directory is not one snapshot of %d summaries and one segment of %d records: %+v", slots, 2*slots, status)
	}
	return slots, status.WALBytes / 2
}

// TestOpenAllocatesWhatSurvives holds Open to the memory bound the package
// documents: the payload bytes of the summaries it recovers (a quarter
// again for their decoded headers and the index), the verification
// windows, and a constant — on a directory where two records in three
// are superseded. Allocating every record, as replay once did, is three
// times the live bytes.
func TestOpenAllocatesWhatSurvives(t *testing.T) {
	dir := t.TempDir()
	slots, liveBytes := buildScenario(t, dir, 4, 64, 900)
	const constant = 512 << 10
	bound := uint64(liveBytes+liveBytes/4) + uint64(runtime.GOMAXPROCS(0))*recoverWindow + constant

	var kept []core.Summary
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st, err := Open(dir, Options{}, func(_ string, s core.Summary) error {
		kept = append(kept, s)
		return nil
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(kept) != slots {
		t.Fatalf("recovered %d summaries, want %d", len(kept), slots)
	}
	if r := st.Recovery(); r.Superseded != int64(2*slots) {
		t.Fatalf("superseded %d records, want %d", r.Superseded, 2*slots)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("Open allocated %d bytes recovering %d live bytes; the bound is %d", got, liveBytes, bound)
	} else {
		t.Logf("Open allocated %d bytes recovering %d live bytes (bound %d)", got, liveBytes, bound)
	}
}

// TestRecoveryMetricsAndTrace: an instrumented Open reports what its
// recovery cost — the two phase gauges, the applied/superseded record
// counts, the bytes verified — and records one store.recover trace with a
// span per verified file and one for the apply.
func TestRecoveryMetricsAndTrace(t *testing.T) {
	l := buildLayered(t)
	mreg := obs.NewRegistry()
	tr := trace.New(4)
	reg := server.NewRegistry()
	st, err := Open(l.dir, Options{Metrics: mreg, Tracer: tr}, reg.Put)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	rec := httptest.NewRecorder()
	mreg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	text := rec.Body.String()
	var onDisk int64
	for _, path := range []string{l.snap1, l.snap2, l.sealedA, l.sealedB, l.live} {
		onDisk += fileSize(t, path)
	}
	for _, want := range []string{
		"# TYPE summaryd_store_recovery_seconds gauge",
		`summaryd_store_recovery_seconds{phase="verify"} `,
		`summaryd_store_recovery_seconds{phase="apply"} `,
		"# TYPE summaryd_store_recovery_records counter",
		`summaryd_store_recovery_records{outcome="applied"} 3`,
		`summaryd_store_recovery_records{outcome="superseded"} 4`,
		"# TYPE summaryd_store_recovery_bytes counter",
		fmt.Sprintf("summaryd_store_recovery_bytes %d", onDisk),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if r := st.Recovery(); r.Verify <= 0 || r.Apply <= 0 || r.Bytes != onDisk {
		t.Errorf("recovery report %+v: want both phases timed and %d bytes", r, onDisk)
	}

	recs := tr.Traces()
	if len(recs) != 1 || recs[0].Spans[0].Name != "store.recover" || recs[0].Spans[0].ParentID != "" {
		t.Fatalf("want one self-rooted store.recover trace, got %+v", recs)
	}
	root := recs[0].Spans[0]
	verified := make(map[string]bool)
	applies := 0
	for _, sp := range recs[0].Spans[1:] {
		if sp.ParentID != root.SpanID {
			t.Errorf("span %s is not a child of store.recover", sp.Name)
		}
		switch sp.Name {
		case "store.verify":
			for _, a := range sp.Attrs {
				if a.Key == "file" {
					verified[a.Value] = true
				}
			}
		case "store.apply":
			applies++
		default:
			t.Errorf("unexpected span %q", sp.Name)
		}
	}
	if len(verified) != 5 || !verified[snapName(1)] || !verified[filepath.Base(l.live)] || applies != 1 {
		t.Errorf("verified %v with %d apply spans; want the five files and one apply", verified, applies)
	}
}

// TestRecoveryTraceIsBounded: recovering a directory of more segments
// than a trace keeps spans for — one store.verify span each — publishes a
// store.recover record that keeps part of them and counts the rest as
// dropped, instead of one span per file however many files there are.
func TestRecoveryTraceIsBounded(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(14))
	opts := Options{SnapshotEvery: -1, SegmentBytes: oneRecordPerSegment}
	reg, st := reopen(t, dir, opts)
	const records = 300
	for i := 0; i < records; i++ {
		spec := specs[i%len(specs)]
		if err := reg.Put(spec.name, randomSummary(rng, spec)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	segs, _, err := scanSegments(dir)
	if err != nil || len(segs) != records {
		t.Fatalf("%d segment files (err=%v), want one per record (%d)", len(segs), err, records)
	}

	tr := trace.New(1)
	opts.Tracer = tr
	_, st2 := reopen(t, dir, opts)
	defer st2.Close()
	recs := tr.Traces()
	if len(recs) != 1 || recs[0].Spans[0].Name != "store.recover" {
		t.Fatalf("want one store.recover trace, got %d records", len(recs))
	}
	rec := recs[0]
	// The root, one store.verify per segment and one store.apply.
	opened := 1 + len(segs) + 1
	if rec.DroppedSpans == 0 || len(rec.Spans) >= len(segs) {
		t.Fatalf("kept %d spans for %d segments, dropped %d: the record is not bounded", len(rec.Spans), len(segs), rec.DroppedSpans)
	}
	if got := len(rec.Spans) + rec.DroppedSpans; got != opened {
		t.Fatalf("kept %d + dropped %d = %d spans, want every span opened (%d)", len(rec.Spans), rec.DroppedSpans, got, opened)
	}
}
