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

// Snapshots are numbered files: snap-000001.snap, snap-000002.snap, …
// Each holds one framed record (segment.go framing) per (dataset,
// summary) the registry held at its cut — the whole registry, datasets
// sorted by name and instances ascending, so equal cuts snapshot to equal
// bytes. Once the manifest has moved past a snapshot's cut, every older
// snapshot file is deleted, so a directory normally holds one. Recovery
// still replays every file it finds in sequence order, later entries
// replacing earlier ones: a crash between promoting snapshot N and
// removing N-1 leaves both. WAL segments then replay on top.
//
// Every file is written atomically — temp file in the same directory,
// fsync, rename, directory fsync — so a snapshot file is always a complete
// image: a crash mid-snapshot leaves the previous snapshot, never a
// truncated hybrid. Replay is therefore strict; tolerance for torn tails
// belongs to the final WAL segment alone.

// snapshotTempPattern names in-flight snapshot temp files; Open removes
// strays matching it — the residue of a crash mid-snapshot.
const snapshotTempPattern = "snap-*.tmp"

// snapName names snapshot file seq.
func snapName(seq int64) string {
	return fmt.Sprintf("snap-%06d.snap", seq)
}

// parseSnapSeq extracts the sequence number from a snapshot file name.
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

// scanSnapshots lists the snapshot file sequence numbers in dir (ascending),
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
// in dir and returns its path, fsynced and closed but NOT yet promoted.
// Splitting the write from the promotion keeps the crash window explicit
// (and testable): until promoteSnapshot's rename, the existing snapshot
// files are untouched.
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

// promoteSnapshot atomically renames the temp file to snapshot file seq
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
