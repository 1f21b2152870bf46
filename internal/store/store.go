// Package store is the summary server's durability subsystem: a
// write-ahead log rotated into bounded, numbered segment files plus an
// incremental snapshot chain, all carrying (dataset, summary) records
// whose payloads are the deterministic v2 binary wire format
// (internal/core codecv2).
//
// The contract with the registry (internal/server.Registry via its
// Persister hook):
//
//   - every accepted registration is appended to the live WAL segment
//     before the request is acknowledged — the segments named by the
//     MANIFEST are the source of truth between snapshots;
//   - the live segment rotates once it reaches Options.SegmentBytes /
//     SegmentRecords: it is fsynced, sealed, and a fresh segment takes
//     over, so no single file grows with uptime;
//   - snapshots run in the BACKGROUND: the registry hands Snapshot a
//     consistent cut (cloned under its lock — the only moment the request
//     path pauses) and a single worker goroutine writes it to the next
//     snapshot chain file while appends continue into the live segment.
//     Only datasets dirty since the previous successful snapshot are
//     written (the chain is compacted whenever it would grow past
//     maxSnapshotChain), and only sealed segments older than the cut are
//     deleted — recovery cost stays bounded by the snapshot interval plus
//     the live segments, not uptime;
//   - Open recovers the snapshot chain then the live segments into the
//     caller's registry. Sealed segments and chain files have no
//     legitimate torn state (both are made durable before anything
//     references them) and hard-error on any invalid record; only the
//     FINAL segment tolerates a torn tail (a crash mid-append), recovering
//     its longest valid record prefix — exactly the registrations that
//     were previously acknowledged durable. Files the manifest cannot
//     account for are quarantined, never silently replayed or deleted.
//
// Recovery verifies everything and materialises only what survives
// (recover.go). Every frame of every chain file and segment is length-,
// CRC- and decode-checked in place, the files side by side, each through
// one fixed window; what is kept is where the last record of each
// (dataset, instance) sits. Only those records are then read back, into
// a buffer each, and applied in log order. A record re-written after an
// ill-timed crash between snapshot promotion and segment deletion is
// just one more superseded record, so every crash point converges to the
// same recovered registry, and Open rewrites nothing but the live
// segment's torn tail.
//
// Memory: Open allocates the payload bytes of the summaries it recovers,
// one window of recoverWindow bytes per concurrently verified file (at
// most GOMAXPROCS; a window grows only to hold a single record larger
// than itself), and an index of O(recovered summaries) entries — never a
// whole file, and nothing per superseded record beyond the few hundred
// bytes its decode check allocates and drops.
package store

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/pkg/api"
)

// DefaultSnapshotEvery is the append count between automatic snapshots
// when Options.SnapshotEvery is zero.
const DefaultSnapshotEvery = 4096

// Options configures a Store at Open.
type Options struct {
	// SnapshotEvery is the number of WAL appends between automatic
	// snapshots: Append reports snapshotDue every SnapshotEvery records.
	// Zero means DefaultSnapshotEvery; negative disables automatic
	// snapshots (Snapshot can still be called explicitly, e.g. at
	// shutdown).
	SnapshotEvery int64
	// Fsync syncs the live segment after every append, making each
	// acknowledgment durable against power loss, not just process death.
	// Off, the OS flushes at its leisure — crash-consistent (replay never
	// sees a half-state) but the tail may be lost with the page cache.
	Fsync bool
	// SegmentBytes caps a live segment's file size: the next append after
	// the cap is reached goes to a fresh segment. Zero means
	// DefaultSegmentBytes. A segment may overshoot by at most one record.
	SegmentBytes int64
	// SegmentRecords caps a live segment's record count. Zero means
	// defaultSegmentRecords (65536).
	SegmentRecords int64
	// Metrics, when set, receives the store's durability series
	// (summaryd_store_*): WAL append counts/bytes, fsync and snapshot
	// latency histograms, rotation/compaction/drop counters, and gauges
	// over the sealed-segment and snapshot-chain state. Nil disables
	// instrumentation at zero cost (the obs instruments are nil no-ops).
	// A registry serves one Open: the series register once, so a reopened
	// store needs a fresh registry.
	Metrics *obs.Registry
	// Tracer, when set, records store spans: WAL append/fsync/rotation
	// under the registering request's span (through AppendTraced), and one
	// self-rooted trace per background snapshot carrying the trace ID of
	// the cut that triggered it. Nil (or a disabled tracer) costs nothing.
	Tracer *trace.Tracer
	// Logger, when set, receives the background-snapshot lines: every
	// completed or failed snapshot logs its sequence number and the
	// triggering cut's trace ID, so a snapshot_error surfaced in /healthz
	// is attributable to a specific run. Nil disables the logging.
	Logger *slog.Logger
}

// storeMetrics holds the store's pre-constructed instruments. Every field
// is nil when Options.Metrics is nil — the obs package makes nil
// instruments free no-ops, so the hot paths below update them
// unconditionally.
type storeMetrics struct {
	walAppends  *obs.Counter
	walBytes    *obs.Counter
	fsync       *obs.Histogram
	rotations   *obs.Counter
	snapshots   *obs.Counter
	snapDur     *obs.Histogram
	snapDrops   *obs.Counter
	compactions *obs.Counter
}

// register builds the store's instruments and the gauges that read its
// guarded state at exposition time (cheap: one mutex hop per scrape, not
// per append).
func (s *Store) registerMetrics(reg *obs.Registry) {
	s.metrics = storeMetrics{
		walAppends: reg.Counter("summaryd_store_wal_appends_total",
			"Records appended to the write-ahead log.", nil),
		walBytes: reg.Counter("summaryd_store_wal_append_bytes_total",
			"Bytes appended to the write-ahead log.", nil),
		fsync: reg.Histogram("summaryd_store_fsync_seconds",
			"Per-append WAL fsync latency (only under -fsync).", nil, nil),
		rotations: reg.Counter("summaryd_store_segment_rotations_total",
			"Live WAL segments sealed and rotated.", nil),
		snapshots: reg.Counter("summaryd_store_snapshots_total",
			"Snapshot chain files written successfully.", nil),
		snapDur: reg.Histogram("summaryd_store_snapshot_seconds",
			"Background snapshot write duration.", nil, nil),
		snapDrops: reg.Counter("summaryd_store_snapshot_drops_total",
			"Automatic snapshots skipped because one was already queued or running.", nil),
		compactions: reg.Counter("summaryd_store_compactions_total",
			"Snapshot chains merged into a single full image.", nil),
	}
	locked := func(read func() float64) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return read()
		}
	}
	reg.GaugeFunc("summaryd_store_sealed_segments",
		"Sealed, not-yet-snapshotted WAL segments retained on disk.", nil,
		locked(func() float64 { return float64(len(s.sealed)) }))
	reg.GaugeFunc("summaryd_store_snapshot_chain_files",
		"Incremental snapshot chain files recovery would replay.", nil,
		locked(func() float64 { return float64(len(s.snapSeqs)) }))
	reg.GaugeFunc("summaryd_store_snapshot_entries",
		"Summaries held by the on-disk snapshot chain.", nil,
		locked(func() float64 { return float64(s.snapEntries) }))
	reg.GaugeFunc("summaryd_store_quarantined_files",
		"Files recovery could not account for and quarantined.", nil,
		locked(func() float64 { return float64(s.quarantined) }))
}

// registerRecoveryMetrics exposes what Open's replay cost. The numbers are
// final by the time anything can scrape them, so they register once, with
// their values, after recovery.
func (s *Store) registerRecoveryMetrics(reg *obs.Registry) {
	r := s.recovery
	const secondsHelp = "Wall time of the two phases of the recovery Open ran."
	reg.GaugeFunc("summaryd_store_recovery_seconds", secondsHelp, obs.Labels{"phase": "verify"},
		func() float64 { return r.Verify.Seconds() })
	reg.GaugeFunc("summaryd_store_recovery_seconds", secondsHelp, obs.Labels{"phase": "apply"},
		func() float64 { return r.Apply.Seconds() })
	const recordsHelp = "Records recovery verified: applied, or superseded by a later record of the same summary."
	reg.Counter("summaryd_store_recovery_records", recordsHelp, obs.Labels{"outcome": "applied"}).Add(uint64(r.Applied))
	reg.Counter("summaryd_store_recovery_records", recordsHelp, obs.Labels{"outcome": "superseded"}).Add(uint64(r.Superseded))
	reg.Counter("summaryd_store_recovery_bytes",
		"Snapshot chain and WAL bytes recovery read and verified.", nil).Add(uint64(r.Bytes))
}

// segMeta describes one sealed segment the store still retains: it holds
// records newer than the last snapshot cut and will be deleted once a
// snapshot covers it.
type segMeta struct {
	seq     int64
	records int64
	bytes   int64
}

// snapJob is one queued snapshot: a consistent cut the registry cloned
// under its lock, destined for the next chain file. cut is the highest
// sealed segment sequence the dump covers.
type snapJob struct {
	cut    int64
	dump   func(emit func(dataset string, s core.Summary) error) error
	commit func(ok bool)
	done   chan error
	// trigger is the trace ID of the operation that cut this snapshot
	// ("" for untraced cuts); seq, entries, and dur are filled in by
	// writeSnapshot for the worker's log line.
	trigger string
	seq     int64
	entries int64
	dur     time.Duration
}

// Store is an open durability directory: a live WAL segment accepting
// appends, the sealed segments behind it, the snapshot chain, and the
// background snapshot worker. Methods are safe for concurrent use; the
// registry additionally serializes Append calls under its own lock, which
// is what makes WAL order identical to registry apply order.
type Store struct {
	dir     string
	opts    Options
	metrics storeMetrics

	mu     sync.Mutex
	closed bool
	lock   *os.File
	live   *segment
	first  int64     // first live segment named by the manifest
	sealed []segMeta // sealed, not-yet-snapshotted segments, ascending seq

	sinceSnapshot int64
	snapSeqs      []int64 // snapshot chain, ascending seq
	snapEntries   int64
	lastSnapshot  time.Time
	lastSnapErr   string
	quarantined   int

	recoveredDatasets  int
	recoveredSummaries int64
	walDatasets        []string
	recovery           Recovery

	// Background snapshot worker state, guarded by mu; snapCond signals
	// the worker when snapQ grows or the store closes.
	snapCond *sync.Cond
	snapQ    []*snapJob
	pending  int // queued + in-flight snapshot jobs
	wg       sync.WaitGroup
}

// Open opens (creating if needed) the durability directory and recovers
// its state — snapshot chain first, then the WAL segments in sequence
// order — converging on exactly the previously acknowledged
// registrations. apply is called once per recovered (dataset, instance),
// with its last record, in log order; a record a later one supersedes is
// verified but never applied. apply is typically Registry.Put on a fresh
// registry; attach the store as the registry's persister only after Open
// returns, so recovery does not re-append what the log already holds, and
// pass WALDatasets to Registry.MarkClean so the first incremental
// snapshot covers exactly the un-snapshotted datasets.
func Open(dir string, opts Options, apply func(dataset string, s core.Summary) error) (st *Store, err error) {
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = DefaultSnapshotEvery
	}
	if opts.SegmentBytes == 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SegmentRecords == 0 {
		opts.SegmentRecords = defaultSegmentRecords
	}
	if opts.SegmentBytes < 1 || opts.SegmentRecords < 1 {
		return nil, fmt.Errorf("store: segment caps must be positive (bytes %d, records %d)", opts.SegmentBytes, opts.SegmentRecords)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating data dir: %w", err)
	}
	// One owner per directory, enforced with flock (lock_unix.go; non-Unix
	// platforms compile with a no-op fallback). Two stores appending to
	// one live segment would interleave WriteAts at overlapping offsets
	// and corrupt acknowledged records.
	lock, err := os.OpenFile(filepath.Join(dir, "lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening lock file: %w", err)
	}
	if err := lockFile(lock); err != nil {
		lock.Close()
		return nil, fmt.Errorf("store: data dir %s is in use by another process: %w", dir, err)
	}
	// Closing the lock file releases the flock; do so on every failed
	// open, or an aborted recovery would wedge the directory until the
	// process exits.
	defer func() {
		if st == nil {
			lock.Close()
		}
	}()
	removeStrayTemps(dir)

	s := &Store{dir: dir, opts: opts, lock: lock}
	s.snapCond = sync.NewCond(&s.mu)
	s.registerMetrics(opts.Metrics)

	if err := s.quarantineLegacy(); err != nil {
		return nil, err
	}
	if err := s.replay(apply); err != nil {
		return nil, err
	}

	s.wg.Add(1)
	go s.worker()
	return s, nil
}

// quarantineLegacy moves a "wal" or "snapshot" file out of the way.
// Nothing in the segmented layout carries those names, so whatever wrote
// one, the manifest never acknowledged its records.
func (s *Store) quarantineLegacy() error {
	for _, name := range []string{legacyWALName, legacySnapshotName} {
		if _, err := os.Stat(filepath.Join(s.dir, name)); err == nil {
			if err := s.quarantine(name); err != nil {
				return err
			}
		}
	}
	return nil
}

// Recovery reports what Open's replay cost: the wall time of its two
// phases, how many verified records were applied and how many a later
// record had superseded, and the file bytes verified.
type Recovery struct {
	Verify, Apply       time.Duration
	Applied, Superseded int64
	Bytes               int64
}

// Recovery returns the cost of the replay Open ran.
func (s *Store) Recovery() Recovery { return s.recovery }

// replay recovers the directory into apply and leaves the store ready for
// appends. Phase 1 (verifyDir) reads and checks everything and changes
// nothing; every write recovery needs — quarantining what the manifest
// cannot account for, removing segments a snapshot superseded, adopting or
// creating the first segment, tearing off the live segment's torn tail —
// happens here, after it. Phase 2 then applies only the last record of
// each (dataset, instance), in log order, so a superseded record never
// touches the registry and the counts below describe the recovered
// registry, not the replay's work.
func (s *Store) replay(apply func(dataset string, sum core.Summary) error) (err error) {
	sp := s.opts.Tracer.StartSpan("store.recover", trace.SpanContext{})
	defer func() {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.Finish()
	}()
	start := time.Now()
	rec, err := verifyDir(s.dir, runtime.GOMAXPROCS(0), sp)
	if err != nil {
		return err
	}
	s.recovery.Verify = time.Since(start)
	for _, name := range rec.stray {
		if err := s.quarantine(name); err != nil {
			return err
		}
	}
	for _, name := range rec.stale {
		os.Remove(filepath.Join(s.dir, name))
	}

	// Making the live segment ready waits on the disk (its fsync writes
	// back whatever the crash left dirty), applying on the CPU, and neither
	// touches what the other reads: they run side by side.
	live := make(chan error, 1)
	go func() { live <- s.openLive(rec) }()
	start = time.Now()
	asp := sp.StartChild("store.apply")
	err = materialise(rec.files, rec.index, runtime.GOMAXPROCS(0), apply)
	asp.SetInt("records", int64(len(rec.index)))
	asp.Finish()
	s.recovery.Apply = time.Since(start)
	if lerr := <-live; lerr != nil {
		return lerr
	}
	if err != nil {
		s.live.f.Close()
		return err
	}
	s.recovery.Applied = int64(len(rec.index))
	s.recovery.Superseded = rec.records - s.recovery.Applied
	s.recovery.Bytes = rec.bytes
	sp.SetInt("files", int64(len(rec.files)))
	sp.SetInt("bytes", rec.bytes)
	sp.SetInt("applied", s.recovery.Applied)
	sp.SetInt("superseded", s.recovery.Superseded)
	s.registerRecoveryMetrics(s.opts.Metrics)

	s.snapSeqs = rec.chain
	s.snapEntries = rec.snapEntries
	if n := len(rec.chain); n > 0 {
		s.lastSnapshot = rec.files[n-1].modTime
	}
	// Datasets with WAL records are exactly the ones the snapshot chain
	// does not fully cover — the registry must consider them dirty.
	s.walDatasets = rec.walDatasets
	datasets := make(map[string]bool)
	for key := range rec.index {
		datasets[key.dataset] = true
	}
	s.recoveredDatasets = len(datasets)
	s.recoveredSummaries = int64(len(rec.index))
	s.sinceSnapshot = s.live.records
	for _, m := range s.sealed {
		s.sinceSnapshot += m.records
	}
	return nil
}

// openLive makes the manifest's last segment the live one: a fresh
// directory gets segment 1 and the manifest naming it, a lone segment 1 is
// adopted, and a verified live segment is torn back to its longest valid
// record prefix and fsynced — the one place the lax rule applies, because
// only the live segment can be torn by a crash mid-append. Sealed
// segments were fsynced whole before the manifest demoted them, so
// verification already refused any invalid record in one.
func (s *Store) openLive(rec *recovered) error {
	if rec.last == 0 {
		// Fresh directory: create segment 1, then the manifest naming it. A
		// crash in between leaves the magic-only segment the next Open
		// adopts.
		live, err := createSegment(s.dir, 1)
		if err != nil {
			return err
		}
		if err := writeManifest(s.dir, 1, 1); err != nil {
			live.f.Close()
			os.Remove(live.path)
			return err
		}
		s.first, s.live = 1, live
		return nil
	}
	if !rec.manifest {
		// A crash before the first manifest write: segment 1 is the
		// magic-only file of an interrupted fresh init. Adopt it.
		if err := writeManifest(s.dir, 1, 1); err != nil {
			return err
		}
	}
	scan := rec.files[len(rec.files)-1]
	f, err := os.OpenFile(scan.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening WAL segment %d: %w", scan.seq, err)
	}
	end := int64(magicLen)
	if scan.size < magicLen {
		// A crash before even the header landed: nothing recoverable in
		// this segment, start it over.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return fmt.Errorf("store: resetting torn WAL segment %d header: %w", scan.seq, err)
		}
		if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
			f.Close()
			return fmt.Errorf("store: writing WAL segment %d header: %w", scan.seq, err)
		}
	} else if end += scan.valid; end < scan.size {
		// Tear off the invalid tail so appends continue from a clean
		// boundary.
		if err := f.Truncate(end); err != nil {
			f.Close()
			return fmt.Errorf("store: truncating torn WAL tail: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing WAL segment %d after recovery: %w", scan.seq, err)
	}
	for _, sealed := range rec.files[len(rec.chain) : len(rec.files)-1] {
		s.sealed = append(s.sealed, segMeta{seq: sealed.seq, records: sealed.records, bytes: sealed.valid})
	}
	s.first = rec.first
	s.live = &segment{seq: scan.seq, path: scan.path, f: f, w: newRecordWriter(f, end), records: scan.records}
	return nil
}

// quarantine moves a file the recovery cannot account for into the
// quarantine subdirectory: the bytes are kept for forensics, but they
// never replay and never collide with live file names.
func (s *Store) quarantine(name string) error {
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("store: creating quarantine dir: %w", err)
	}
	if err := os.Rename(filepath.Join(s.dir, name), filepath.Join(qdir, name)); err != nil {
		return fmt.Errorf("store: quarantining %s: %w", name, err)
	}
	syncDir(s.dir)
	s.quarantined++
	return nil
}

// Append is AppendTraced without a span.
func (s *Store) Append(dataset string, sum core.Summary) (snapshotDue bool, err error) {
	return s.AppendTraced(nil, dataset, sum)
}

// AppendTraced writes one accepted (dataset, summary) registration to the
// live segment, rotating first if the segment is at its cap. It reports
// snapshotDue when the appends since the last snapshot have reached
// Options.SnapshotEvery — the caller (holding whatever lock serializes
// registrations) should then call SnapshotTraced with a consistent cut.
// The durable write is recorded as a store.append child span of parent,
// with the fsync and any segment rotation as its own children. A nil
// parent (or no tracer behind it) records nothing. AppendTraced
// implements half of server.Persister.
func (s *Store) AppendTraced(parent *trace.Span, dataset string, sum core.Summary) (snapshotDue bool, err error) {
	sp := parent.StartChild("store.append")
	defer sp.Finish()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, errors.New("store: append on closed store")
	}
	if s.live.records >= s.opts.SegmentRecords || s.live.w.end >= s.opts.SegmentBytes {
		// Rotation failure is not an append failure: the record still lands
		// durably in the over-cap live segment, costing recovery granularity
		// rather than the request. Rotation is retried on the next append.
		rsp := sp.StartChild("store.rotate")
		_ = s.rotateLocked()
		rsp.Finish()
	}
	live := s.live
	prevEnd := live.w.end
	sp.SetInt("segment", live.seq)
	if err := live.w.append(dataset, sum); err != nil {
		return false, err
	}
	if s.opts.Fsync {
		fsp := sp.StartChild("store.fsync")
		fsyncStart := time.Now()
		if err := live.f.Sync(); err != nil {
			fsp.Finish()
			// The record is fully framed on disk, but this error makes the
			// caller roll the registration back and fail the request — so
			// the frame must go too, or a restart would resurrect a summary
			// the client was told did not land. If even the truncate fails,
			// poison the store: better no more appends than a log whose
			// valid prefix disagrees with what was acknowledged.
			if terr := live.f.Truncate(prevEnd); terr != nil {
				s.closed = true
				s.snapCond.Broadcast() // let the snapshot worker exit
				live.f.Close()
				s.lock.Close()
				return false, fmt.Errorf("store: syncing WAL: %v (truncating the unacknowledged record also failed, store closed: %w)", err, terr)
			}
			live.w.end = prevEnd
			return false, fmt.Errorf("store: syncing WAL: %w", err)
		}
		fsp.Finish()
		s.metrics.fsync.ObserveSince(fsyncStart)
	}
	live.records++
	s.sinceSnapshot++
	s.metrics.walAppends.Inc()
	s.metrics.walBytes.Add(uint64(live.w.end - prevEnd))
	sp.SetInt("bytes", live.w.end-prevEnd)
	return s.opts.SnapshotEvery > 0 && s.sinceSnapshot >= s.opts.SnapshotEvery, nil
}

// rotateLocked seals the live segment and opens the next one. The order
// is the crash-safety argument: the outgoing segment is truncated to its
// logical end (dropping any failed-append residue) and fsynced BEFORE the
// manifest demotes it — a sealed segment replays strictly, so its bytes
// must be fully durable first. The new segment likewise exists, with its
// header fsynced, before the manifest names it.
func (s *Store) rotateLocked() error {
	live := s.live
	if err := live.f.Truncate(live.w.end); err != nil {
		return fmt.Errorf("store: sealing WAL segment %d: %w", live.seq, err)
	}
	if err := live.f.Sync(); err != nil {
		return fmt.Errorf("store: syncing WAL segment %d before sealing: %w", live.seq, err)
	}
	next, err := createSegment(s.dir, live.seq+1)
	if err != nil {
		return err
	}
	if err := writeManifest(s.dir, s.first, next.seq); err != nil {
		next.f.Close()
		os.Remove(next.path)
		return err
	}
	s.sealed = append(s.sealed, segMeta{seq: live.seq, records: live.records, bytes: live.w.end - magicLen})
	live.f.Close()
	s.live = next
	s.metrics.rotations.Inc()
	return nil
}

// SnapshotTraced accepts a consistent cut for the background snapshot
// worker. The caller (Registry.Put when due, Registry.Snapshot
// explicitly) holds the registry lock, which is what makes enqueue order
// equal cut order: the single worker then writes chain files in cut
// order, so a newer cut can never be overridden by an older one replaying
// later.
//
// dump must iterate state cloned at the cut — it runs on the worker
// goroutine, concurrently with new registrations. commit(ok) is called
// exactly once, off the registry lock, when the snapshot completes or
// fails: the registry uses it to mark the cut's datasets clean (ok) or
// leave them dirty for the next attempt (!ok). With syncWait set the
// returned wait blocks until the job finishes — call it AFTER releasing
// the registry lock, or the worker's commit would deadlock against it.
// Without syncWait, wait is nil, and the job is dropped (commit(false))
// if a snapshot is already queued or running — dirtiness is retained, so
// the next due snapshot re-covers the skipped appends.
//
// trigger is the span of the operation that cut it (the registering
// request for an automatic snapshot, nil for explicit/shutdown cuts). The
// snapshot outlives the request, so it is recorded as its own trace
// (rooted at store.snapshot) stamped with the trigger's trace ID rather
// than as a child span; the live-segment seal it performs inline,
// however, IS a child of the trigger. SnapshotTraced implements the other
// half of server.Persister.
func (s *Store) SnapshotTraced(trigger *trace.Span, dump func(emit func(dataset string, sum core.Summary) error) error, commit func(ok bool), syncWait bool) (wait func() error, err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		commit(false)
		return nil, errors.New("store: snapshot on closed store")
	}
	// Back off a full interval before the next automatic attempt,
	// whatever this one's outcome: a persistently failing snapshot must
	// not re-trigger on every subsequent append.
	s.sinceSnapshot = 0
	if !syncWait && s.pending > 0 {
		s.mu.Unlock()
		s.metrics.snapDrops.Inc()
		commit(false)
		return nil, nil
	}
	if s.live.records > 0 {
		// Seal the live segment so the cut covers every record appended so
		// far and the worker can delete segments up to it.
		rsp := trigger.StartChild("store.rotate")
		err := s.rotateLocked()
		rsp.Finish()
		if err != nil {
			s.lastSnapErr = err.Error()
			s.mu.Unlock()
			commit(false)
			return nil, err
		}
	}
	job := &snapJob{cut: s.live.seq - 1, dump: dump, commit: commit, done: make(chan error, 1), trigger: trigger.TraceID()}
	s.pending++
	s.snapQ = append(s.snapQ, job)
	s.snapCond.Signal()
	s.mu.Unlock()
	if syncWait {
		return func() error { return <-job.done }, nil
	}
	return nil, nil
}

// worker is the background snapshot goroutine: it drains snapQ in FIFO
// (= cut) order, holding no store lock during the expensive file write.
// At close it fails any jobs still queued — their cuts stay dirty and the
// WAL still holds their records, so nothing is lost.
func (s *Store) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.snapQ) == 0 && !s.closed {
			s.snapCond.Wait()
		}
		if len(s.snapQ) == 0 {
			s.mu.Unlock()
			return
		}
		job := s.snapQ[0]
		s.snapQ = s.snapQ[1:]
		closed := s.closed
		s.mu.Unlock()

		var err error
		if closed {
			err = errors.New("store: closed before snapshot ran")
		} else {
			err = s.writeSnapshot(job)
		}
		if err != nil {
			// Stamp the failure with the run's sequence so the
			// snapshot_error surfaced in /healthz names a specific,
			// log-correlatable snapshot attempt.
			msg := err.Error()
			if job.seq > 0 {
				msg = fmt.Sprintf("snapshot %d: %s", job.seq, msg)
			}
			s.mu.Lock()
			s.lastSnapErr = msg
			s.mu.Unlock()
		}
		s.logSnapshot(job, err)
		// Off every store lock: commit re-enters the registry, whose lock
		// ranks above the store's.
		job.commit(err == nil)
		job.done <- err

		s.mu.Lock()
		s.pending--
		s.mu.Unlock()
	}
}

// logSnapshot emits one background-snapshot line per completed job,
// carrying the snapshot sequence and the trace ID of the triggering cut —
// the correlation fields that make a later snapshot_error attributable.
func (s *Store) logSnapshot(job *snapJob, err error) {
	l := s.opts.Logger
	if l == nil {
		return
	}
	if err != nil {
		l.LogAttrs(context.Background(), slog.LevelError, "snapshot failed",
			slog.Int64("snapshot_seq", job.seq),
			slog.String("trigger_trace", job.trigger),
			slog.String("error", err.Error()),
		)
		return
	}
	l.LogAttrs(context.Background(), slog.LevelInfo, "snapshot",
		slog.Int64("snapshot_seq", job.seq),
		slog.String("trigger_trace", job.trigger),
		slog.Int64("entries", job.entries),
		slog.Duration("duration", job.dur),
	)
}

// writeSnapshot runs one snapshot job on the worker goroutine. The dump
// (already a consistent cut) streams into the next chain file; when the
// chain would outgrow maxSnapshotChain it is merged with the existing
// files into one full image instead. On success the manifest advances
// past the covered segments and those files are deleted — strictly after
// the chain file is durable, so a crash at any point leaves a directory
// that recovers to the same state.
func (s *Store) writeSnapshot(job *snapJob) (err error) {
	snapStart := time.Now()
	s.mu.Lock()
	chain := append([]int64(nil), s.snapSeqs...)
	s.mu.Unlock()

	nextSeq := int64(1)
	if len(chain) > 0 {
		nextSeq = chain[len(chain)-1] + 1
	}
	job.seq = nextSeq
	// The snapshot outlives whatever triggered it, so it records as its
	// own trace, stamped with the trigger's trace ID for correlation.
	sp := s.opts.Tracer.StartSpan("store.snapshot", trace.SpanContext{})
	sp.SetInt("snapshot_seq", nextSeq)
	if job.trigger != "" {
		sp.SetAttr("trigger_trace", job.trigger)
	}
	defer func() {
		job.dur = time.Since(snapStart)
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.Finish()
	}()
	dump := job.dump
	merge := len(chain)+1 > maxSnapshotChain
	if merge {
		// Chain files are immutable once promoted and only this goroutine
		// adds or removes them, so reading them unlocked is safe. One worker:
		// this runs beside the serving path, not in front of it.
		files, err := verifyFiles(s.dir, chainSpecs(chain), 1, sp)
		if err != nil {
			return err
		}
		index := make(map[instanceKey]frameRef)
		lastWins(index, files)
		merged := make(map[instanceKey]core.Summary, len(index))
		collect := func(dataset string, sum core.Summary) error {
			merged[instanceKey{dataset, sum.InstanceID()}] = sum
			return nil
		}
		if err := materialise(files, index, 1, collect); err != nil {
			return err
		}
		if err := job.dump(collect); err != nil {
			return err
		}
		dump = sortedMergeDump(merged)
	}

	tmp, entries, err := writeSnapshotTemp(s.dir, dump)
	if err != nil {
		return err
	}
	job.entries = entries
	sp.SetInt("entries", entries)
	wrote := entries > 0 || merge
	if !wrote {
		// Nothing was dirty at the cut. Every record in the covered
		// segments mutated some dataset after the PREVIOUS cut, so an empty
		// dump means those segments hold nothing the chain lacks — the
		// manifest can still advance and delete them, without an empty
		// chain file to show for it.
		os.Remove(tmp)
	} else if err := promoteSnapshot(s.dir, tmp, nextSeq); err != nil {
		os.Remove(tmp)
		return err
	}

	s.mu.Lock()
	if wrote {
		if merge {
			s.snapSeqs = []int64{nextSeq}
			s.snapEntries = entries
		} else {
			s.snapSeqs = append(s.snapSeqs, nextSeq)
			s.snapEntries += entries
		}
	}
	var goneSegs []string
	if job.cut >= s.first {
		if err := writeManifest(s.dir, job.cut+1, s.live.seq); err != nil {
			s.mu.Unlock()
			return err
		}
		for len(s.sealed) > 0 && s.sealed[0].seq <= job.cut {
			goneSegs = append(goneSegs, segmentName(s.sealed[0].seq))
			s.sealed = s.sealed[1:]
		}
		s.first = job.cut + 1
	}
	s.lastSnapshot = time.Now()
	s.lastSnapErr = "" // a successful snapshot clears any stale error
	s.mu.Unlock()

	// Deletions come last: until the manifest advanced, these files were
	// needed; now a crash before any Remove just means the next Open
	// prunes them.
	if merge {
		for _, seq := range chain {
			os.Remove(filepath.Join(s.dir, snapName(seq)))
		}
	}
	for _, name := range goneSegs {
		os.Remove(filepath.Join(s.dir, name))
	}
	if merge || len(goneSegs) > 0 {
		syncDir(s.dir)
	}
	s.metrics.snapshots.Inc()
	s.metrics.snapDur.ObserveSince(snapStart)
	if merge {
		s.metrics.compactions.Inc()
	}
	return nil
}

// Status reports the store's durability state for /healthz.
func (s *Store) Status() api.StoreStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	records, bytes := s.live.records, s.live.w.end-magicLen
	for _, m := range s.sealed {
		records += m.records
		bytes += m.bytes
	}
	st := api.StoreStatus{
		Dir:                s.dir,
		WALRecords:         records,
		WALBytes:           bytes,
		WALSegments:        int64(len(s.sealed)) + 1,
		SnapshotEntries:    s.snapEntries,
		SnapshotChain:      len(s.snapSeqs),
		QuarantinedFiles:   s.quarantined,
		RecoveredDatasets:  s.recoveredDatasets,
		RecoveredSummaries: s.recoveredSummaries,
		Fsync:              s.opts.Fsync,
	}
	st.SnapshotError = s.lastSnapErr
	if !s.lastSnapshot.IsZero() {
		st.LastSnapshot = s.lastSnapshot.UTC().Format(time.RFC3339)
	}
	return st
}

// WALDatasets lists (sorted) the distinct dataset names Open recovered
// from WAL segments — exactly the datasets the snapshot chain does not
// fully cover. Pass it to Registry.MarkClean after SetPersister so the
// first incremental snapshot writes these datasets and no others.
func (s *Store) WALDatasets() []string {
	return append([]string(nil), s.walDatasets...)
}

// Close stops the snapshot worker (failing any still-queued jobs — their
// records remain in the WAL), fsyncs the live segment, and releases the
// directory. A store shutting down cleanly should run a final
// Registry.Snapshot first (as summaryd does on SIGTERM) so the next Open
// replays a snapshot instead of the whole log — but skipping that costs
// only recovery time, never data.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.snapCond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.lock.Close() // releases the directory flock
	if err := s.live.f.Sync(); err != nil {
		s.live.f.Close()
		return fmt.Errorf("store: syncing WAL at close: %w", err)
	}
	return s.live.f.Close()
}
