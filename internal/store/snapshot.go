package store

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Snapshots form a numbered chain: snap-000001.snap, snap-000002.snap, …
// Each file holds one framed record (segment.go framing) per (dataset,
// summary) that was DIRTY at its cut — mutated since the previous
// successful snapshot — datasets sorted by name and instances ascending,
// so equal cuts snapshot to equal bytes. Replaying the chain in sequence
// order, later entries replacing earlier ones, reconstructs the full
// registry image at the newest cut; WAL segments then replay on top.
//
// Every file is written atomically — temp file in the same directory,
// fsync, rename, directory fsync — so a chain file is always a complete
// image: a crash mid-snapshot leaves the previous chain, never a
// truncated hybrid. Replay is therefore strict; tolerance for torn tails
// belongs to the final WAL segment alone.
//
// The chain is compacted — merged into a single full file — by the
// background writer whenever it would grow past maxSnapshotChain, so
// recovery reads a bounded number of files no matter how long the process
// ran. Open never rewrites it: a superseded chain entry costs recovery a
// read and a check, a compaction would cost a write and an fsync before
// the server listens.

const (
	// maxSnapshotChain bounds the chain length: a snapshot that would be
	// chain file maxSnapshotChain+1 is written as a full merge instead.
	maxSnapshotChain = 8
	// snapshotTempPattern names in-flight snapshot temp files; Open
	// removes strays matching it — the residue of a crash mid-snapshot.
	snapshotTempPattern = "snap-*.tmp"
)

// snapName names snapshot chain file seq.
func snapName(seq int64) string {
	return fmt.Sprintf("snap-%06d.snap", seq)
}

// parseSnapSeq extracts the sequence number from a chain file name.
func parseSnapSeq(name string) (int64, bool) {
	body, ok := strings.CutPrefix(name, "snap-")
	if !ok {
		return 0, false
	}
	body, ok = strings.CutSuffix(body, ".snap")
	if !ok || body == "" {
		return 0, false
	}
	for i := 0; i < len(body); i++ {
		if body[i] < '0' || body[i] > '9' {
			return 0, false
		}
	}
	seq, err := strconv.ParseInt(body, 10, 64)
	if err != nil || seq < 1 {
		return 0, false
	}
	return seq, true
}

// scanSnapshots lists the chain file sequence numbers in dir (ascending),
// plus any "snap-*.snap"-shaped names that do not parse, for quarantine.
func scanSnapshots(dir string) (seqs []int64, malformed []string, err error) {
	matches, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil {
		return nil, nil, fmt.Errorf("store: scanning snapshots: %w", err)
	}
	for _, m := range matches {
		name := filepath.Base(m)
		seq, ok := parseSnapSeq(name)
		if !ok {
			malformed = append(malformed, name)
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, malformed, nil
}

// writeSnapshotTemp streams the image dump yields into a fresh temp file
// in dir and returns its path, fsynced and closed but NOT yet promoted
// into the chain. Splitting the write from the promotion keeps the crash
// window explicit (and testable): until promoteSnapshot's rename, the
// existing chain is untouched.
func writeSnapshotTemp(dir string, dump func(emit func(dataset string, s core.Summary) error) error) (path string, entries int64, err error) {
	tmp, err := os.CreateTemp(dir, snapshotTempPattern)
	if err != nil {
		return "", 0, fmt.Errorf("store: creating snapshot temp file: %w", err)
	}
	path = tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(path)
		}
	}()
	if _, err = tmp.WriteString(snapMagic); err != nil {
		return "", 0, fmt.Errorf("store: writing snapshot header: %w", err)
	}
	w := newRecordWriter(tmp, magicLen)
	if err = dump(func(dataset string, s core.Summary) error {
		if err := w.append(dataset, s); err != nil {
			return err
		}
		entries++
		// The writer is a background, latency-insensitive goroutine; the
		// appends it runs beside are not. Yielding between records keeps
		// the serving path's scheduling delay at a record's encode time
		// instead of the runtime's ~10ms forced-preemption quantum — which
		// is what appends would see on small machines during a large
		// snapshot encode.
		if entries%64 == 0 {
			runtime.Gosched()
		}
		return nil
	}); err != nil {
		return "", 0, err
	}
	if err = tmp.Sync(); err != nil {
		return "", 0, fmt.Errorf("store: syncing snapshot: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return "", 0, fmt.Errorf("store: closing snapshot temp file: %w", err)
	}
	return path, entries, nil
}

// promoteSnapshot atomically adds the temp file to the chain as file seq
// and fsyncs the directory so the rename itself is durable.
func promoteSnapshot(dir, tmpPath string, seq int64) error {
	if err := os.Rename(tmpPath, filepath.Join(dir, snapName(seq))); err != nil {
		return fmt.Errorf("store: promoting snapshot %d: %w", seq, err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making a just-renamed entry durable. Some
// platforms cannot fsync directories; that is a durability reduction,
// not an error.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

// instanceKey identifies one summary slot for chain merging.
type instanceKey struct {
	dataset  string
	instance int
}

// sortedMergeDump renders a merged chain image as a deterministic dump:
// datasets by name, instances ascending — the same order a registry cut
// uses, so a compacted chain and a fresh full snapshot of equal state are
// byte-identical.
func sortedMergeDump(merged map[instanceKey]core.Summary) func(emit func(dataset string, s core.Summary) error) error {
	keys := make([]instanceKey, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].dataset != keys[j].dataset {
			return keys[i].dataset < keys[j].dataset
		}
		return keys[i].instance < keys[j].instance
	})
	return func(emit func(dataset string, s core.Summary) error) error {
		for _, k := range keys {
			if err := emit(k.dataset, merged[k]); err != nil {
				return err
			}
		}
		return nil
	}
}

// removeStrayTemps deletes leftover snapshot and manifest temp files —
// the residue of a crash between temp-file write and rename. Promoted
// files are untouched; the interrupted writes are simply discarded.
func removeStrayTemps(dir string) {
	for _, pattern := range []string{snapshotTempPattern, manifestTempPattern} {
		strays, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			continue
		}
		for _, s := range strays {
			os.Remove(s)
		}
	}
}
