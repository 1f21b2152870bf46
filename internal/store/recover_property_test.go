package store

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/pkg/api"
)

// dumpBytes renders a registry dump as one byte string — name, instance
// and v2 bytes of every summary, in dump order — so that two registries
// can be compared as a whole, order included.
func dumpBytes(t *testing.T, dump func(emit func(string, core.Summary) error) error) []byte {
	t.Helper()
	var out []byte
	if err := dump(func(ds string, s core.Summary) error {
		data, err := core.EncodeSummary(s, 2)
		if err != nil {
			return err
		}
		out = append(out, ds...)
		out = binary.AppendVarint(out, int64(s.InstanceID()))
		out = binary.AppendUvarint(out, uint64(len(data)))
		out = append(out, data...)
		return nil
	}); err != nil {
		t.Fatalf("dumping registry: %v", err)
	}
	return out
}

// slots counts a shadow's (dataset, instance) entries.
func (sh shadow) slots() int64 {
	var n int64
	for _, m := range sh {
		n += int64(len(m))
	}
	return n
}

// mustRecoverTo asserts that a recovered registry and its store describe
// exactly the model's state: the registry dumps, byte for byte and in
// order, as one filled from the shadow does, and every Status field a
// recovery sets has the model's value.
func mustRecoverTo(t *testing.T, what string, reg *server.Registry, st *Store, state shadow, want api.StoreStatus) {
	t.Helper()
	model := server.NewRegistry()
	if err := state.dump(model.Put); err != nil {
		t.Fatalf("%s: filling the model registry: %v", what, err)
	}
	if !bytes.Equal(dumpBytes(t, reg.Dump), dumpBytes(t, model.Dump)) {
		t.Fatalf("%s: recovered registry does not dump as the model does", what)
	}
	got := st.Status()
	want.Dir, want.LastSnapshot, want.Fsync = got.Dir, got.LastSnapshot, got.Fsync
	if got != want {
		t.Fatalf("%s: status\n got %+v\nwant %+v", what, got, want)
	}
	if got.LastSnapshot == "" {
		t.Fatalf("%s: no last_snapshot though the directory holds a snapshot", what)
	}
}

// TestCrashRecoveryProperty is the subsystem's central contract: for
// random interleavings of posts and ingest results (modeled as registry
// Puts — both HTTP paths reduce to Put) with mid-run snapshots and
// segment rotations, recovery from (snapshots + segments) is bit-for-bit
// the in-memory registry, and recovery after
// truncating the FINAL segment at an ARBITRARY byte offset is
// bit-for-bit the registry built from the longest valid record prefix.
// Truncation anywhere in a SEALED segment, by contrast, must hard-error:
// sealed segments were fsynced before the manifest retained them, so a
// tear there is lost acknowledged data, not a crash artifact.
//
// Every third write goes to one hot slot, so the same (dataset, instance)
// is rewritten before the first snapshot cut, between the cuts, after the
// second and across every rotation. The first snapshot is put back beside
// the second, as a crash between promoting the second and removing the
// first leaves the directory, so recovery has to pick the hot slot's last
// record out of two snapshot files, the sealed segments and the live one.
//
// The expected state is computed from a test-side shadow model — never
// from the store's own reader — so the check cannot be circular. Every
// append records a mark {segment seq, end offset in that segment, shadow
// clone after the append}. Because snapshots cut at rotation points and
// segments replay in order, the state recovered after truncating the
// final segment (seq L) at offset X is the shadow of the LAST mark with
// seq < L, or seq == L and end <= X — no matter how many sealed segments
// sit underneath. The same marks give every number the store reports
// about a recovery: the snapshots hold the slots that existed at the last
// cut, the WAL the records appended since.
func TestCrashRecoveryProperty(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		dir := t.TempDir()
		// Tiny segments, a few records each, force rotations; automatic
		// snapshots off so the mid-run snapshots below are the only,
		// deterministic, cuts.
		reg, st := reopen(t, dir, Options{SnapshotEvery: -1, SegmentBytes: 1024})

		type mark struct {
			seq   int64 // segment holding the record
			end   int64 // offset in that segment where the record ends
			size  int64 // bytes the record's frame takes
			state shadow
		}
		full := make(shadow)
		var marks []mark

		ops := 15 + rng.Intn(25)
		snapAt := map[int]bool{ops / 3: true, (2 * ops) / 3: true}
		lastCut := 0          // marks[:lastCut] are covered by the snapshots
		atCut := make(shadow) // the state the last snapshot holds
		var firstSnap []byte  // the first snapshot file, which the second deletes
		var firstSeq int64
		for i := 0; i < ops; i++ {
			spec := specs[rng.Intn(len(specs))]
			sum := randomSummary(rng, spec)
			if i%3 == 0 {
				spec = specs[0]
				sum = randomSummaryAt(rng, spec, 0)
			}
			if err := reg.Put(spec.name, sum); err != nil {
				t.Fatalf("trial %d op %d: put: %v", trial, i, err)
			}
			full.put(spec.name, sum)
			st.mu.Lock()
			m := mark{seq: st.live.seq, end: st.live.w.end, state: full.clone()}
			st.mu.Unlock()
			m.size = m.end - magicLen
			if n := len(marks); n > 0 && marks[n-1].seq == m.seq {
				m.size = m.end - marks[n-1].end
			}
			marks = append(marks, m)
			if snapAt[i] {
				if err := reg.Snapshot(); err != nil {
					t.Fatalf("trial %d op %d: snapshot: %v", trial, i, err)
				}
				lastCut, atCut = len(marks), full.clone()
				if firstSnap == nil {
					seqs := snapFiles(t, dir)
					firstSeq = seqs[len(seqs)-1]
					data, err := os.ReadFile(filepath.Join(dir, snapName(firstSeq)))
					if err != nil {
						t.Fatal(err)
					}
					firstSnap = data
				}
			}
		}
		if err := st.Close(); err != nil {
			t.Fatalf("trial %d: close: %v", trial, err)
		}
		first, last, ok, err := readManifest(dir)
		if err != nil || !ok {
			t.Fatalf("trial %d: manifest: ok=%v err=%v", trial, ok, err)
		}
		// Put the first snapshot back beside the second, as a crash between
		// promoting the second and removing the first leaves them: every
		// recovery below has to pick the hot slot's last record out of two
		// snapshot files, the sealed segments and the live one.
		if err := os.WriteFile(filepath.Join(dir, snapName(firstSeq)), firstSnap, 0o644); err != nil {
			t.Fatal(err)
		}
		if got := snapFiles(t, dir); len(got) != 2 || got[0] != firstSeq {
			t.Fatalf("trial %d: snapshot files %v, want the first (%d) and the second", trial, got, firstSeq)
		}

		// expect is the model's answer for a final segment cut at x bytes.
		expect := func(x int64) (shadow, api.StoreStatus) {
			state := make(shadow)
			status := api.StoreStatus{
				WALSegments:     last - first + 1,
				SnapshotEntries: atCut.slots(),
			}
			for i, m := range marks {
				if m.seq == last && m.end > x {
					break
				}
				state = m.state
				if i >= lastCut {
					status.WALRecords++
					status.WALBytes += m.size
				}
			}
			status.RecoveredDatasets = len(state)
			status.RecoveredSummaries = state.slots()
			return state, status
		}

		livePath := filepath.Join(dir, segmentName(last))
		liveBytes, err := os.ReadFile(livePath)
		if err != nil {
			t.Fatalf("trial %d: reading final segment: %v", trial, err)
		}

		// The untouched directory replays to the full state.
		reg2, st2 := reopen(t, dir, Options{})
		mustMatch(t, "full replay", image(t, reg2.Dump), image(t, full.dump))
		state, status := expect(int64(len(liveBytes)))
		mustRecoverTo(t, "full replay", reg2, st2, state, status)
		st2.Close()

		// Truncate the final segment at arbitrary byte offsets — record
		// boundaries, mid-header, mid-payload, inside the file magic, even
		// zero — and check the recovered registry against the
		// longest-valid-prefix expectation.
		offsets := []int64{0, 3, magicLen, int64(len(liveBytes))}
		for _, m := range marks {
			if m.seq == last {
				offsets = append(offsets, m.end, m.end-1, m.end+3)
			}
		}
		for k := 0; k < 8; k++ {
			offsets = append(offsets, int64(rng.Intn(len(liveBytes)+1)))
		}
		for _, x := range offsets {
			if x < 0 || x > int64(len(liveBytes)) {
				continue
			}
			if err := os.WriteFile(livePath, liveBytes[:x], 0o644); err != nil {
				t.Fatal(err)
			}
			expected, status := expect(x)
			regT := server.NewRegistry()
			stT, err := Open(dir, Options{}, regT.Put)
			if err != nil {
				t.Fatalf("trial %d: open after truncation at %d: %v", trial, x, err)
			}
			mustMatch(t, "truncation", image(t, regT.Dump), image(t, expected.dump))
			mustRecoverTo(t, "truncation", regT, stT, expected, status)

			// The acceptance criterion speaks of query answers: spot-check
			// that the recovered summaries answer bit-identically too (the
			// byte equality above already implies it; this pins the claim
			// at the query layer).
			if err := regT.Dump(func(ds string, s core.Summary) error {
				var got, want float64
				switch v := s.(type) {
				case *core.PPSSummary:
					got = v.SubsetSum(nil)
					want = expected[ds][s.InstanceID()].(*core.PPSSummary).SubsetSum(nil)
				case core.BottomKReader:
					got = v.SubsetSum(nil)
					want = expected[ds][s.InstanceID()].(core.BottomKReader).SubsetSum(nil)
				default:
					return nil
				}
				if got != want {
					t.Fatalf("trial %d truncation at %d: %s/%d subset sum %v != %v",
						trial, x, ds, s.InstanceID(), got, want)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			stT.Close()
		}

		// Restore the final segment, then tear a SEALED retained segment:
		// recovery must refuse outright rather than quietly truncate.
		if err := os.WriteFile(livePath, liveBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if first < last {
			sealedPath := filepath.Join(dir, segmentName(first))
			size := fileSize(t, sealedPath)
			if err := os.Truncate(sealedPath, size-2); err != nil {
				t.Fatal(err)
			}
			regT := server.NewRegistry()
			if _, err := Open(dir, Options{}, regT.Put); err == nil {
				t.Fatalf("trial %d: Open silently accepted a torn sealed segment", trial)
			}
		}
	}
}
