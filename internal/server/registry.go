// Package server is the summary server: an HTTP subsystem that accepts
// independently built summaries (the internal/core JSON wire format, or
// raw pair streams summarized on arrival through the internal/engine
// pipeline) and answers multi-instance queries — distinct
// counts, max-dominance norms, per-key quantiles — over any stored subset
// with the §5 partial-information estimators.
//
// This is the paper's dispersed-data story end to end (§1, §2): each data
// instance is summarized where the data lands, only the compact summaries
// travel, and any party holding a subset of them can run exact
// post-hoc estimation, because the hash salt shipped with every summary
// makes all seeds recomputable.
package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs/trace"
	"repro/pkg/api"
)

// Registry errors, distinguished so HTTP handlers can map them to status
// codes (404 vs 409).
var (
	// ErrNotFound reports a dataset or instance that is not registered.
	//summarylint:ignore Registry.Get's errors.Is target, shared by the tests of internal/store (store_test.go)
	ErrNotFound = errors.New("server: not found")
	// errIncompatible reports a summary that cannot be combined with the
	// dataset it was posted to: different salt or summary kind.
	errIncompatible = errors.New("server: incompatible summary")
)

// Registry is the in-memory summary store, keyed by dataset name and
// instance index. All summaries of one dataset share a randomization (a
// salt) and a kind; the first summary posted fixes
// them, and later posts must match — the compatibility invariant that
// makes every stored subset combinable exactly.
//
// Registered summaries are treated as immutable: Put replaces whole
// entries (last write per (dataset, instance) wins) and queries only read,
// so readers never observe partial state.
type Registry struct {
	mu        sync.RWMutex
	datasets  map[string]*datasetEntry
	persister Persister

	// Dirty tracking for incremental snapshots. epoch numbers snapshot
	// cuts: each DumpCut takes the current epoch and increments it, and a
	// successful Put stamps its dataset with the current epoch. A dataset
	// is dirty — must appear in the next cut — iff its stamp is at or
	// above cleanEpoch, which advances to cut+1 only when the snapshot of
	// cut commits successfully: a failed snapshot leaves every stamp
	// dirty, so the next cut re-covers it. cleanEpoch is atomic (not under
	// mu) so a snapshot's commit callback can run anywhere: inline under
	// the registry lock (a synchronous persister) or on a background
	// worker (internal/store), without deadlock either way.
	epoch      int64
	cleanEpoch atomic.Int64
}

// Persister hooks registry mutations to durable storage (internal/store
// implements it). Put calls AppendTraced under the registry's write lock
// for every accepted summary, so the log's record order is exactly the
// order registrations took effect; when it reports a snapshot is due, Put
// immediately hands the persister a consistent cut taken under that same
// lock — the persister may write it on a background goroutine while
// registrations continue. Each method takes the span of the operation
// behind it, so the store can hang its own spans (WAL append, fsync,
// rotation) under the request and stamp background snapshots with the
// trace that cut them; a nil span means untraced.
type Persister interface {
	// AppendTraced durably records one accepted registration. An error
	// fails (and rolls back) the registration: the registry never
	// acknowledges state the log did not accept.
	AppendTraced(parent *trace.Span, dataset string, s core.Summary) (snapshotDue bool, err error)
	// SnapshotTraced accepts a consistent cut for durable persistence.
	// dump iterates state captured at the cut and stays valid after the
	// registry lock is released; the persister may run it later, on
	// another goroutine. commit(ok) must be called exactly once, when the
	// snapshot durably completes (ok) or is abandoned (!ok) — it is safe
	// to call from anywhere, including synchronously from inside
	// SnapshotTraced (the registry's commit uses only atomics). With
	// syncWait, the returned wait blocks until the job finishes; the
	// caller must invoke it AFTER releasing the registry lock
	// (Registry.Snapshot does), or a background commit could never
	// complete. Callers other than the registry must route through
	// Registry.Snapshot: it establishes the one legal lock order
	// (registry lock, then the persister's own). The snapshot outlives the
	// request, so trigger is recorded as the trace that cut it rather than
	// as a parent span.
	SnapshotTraced(trigger *trace.Span, dump func(emit func(dataset string, s core.Summary) error) error, commit func(ok bool), syncWait bool) (wait func() error, err error)
}

type datasetEntry struct {
	kind       string
	salt       uint64
	byInstance map[int]core.Summary
	// dirtyEpoch is the registry epoch of the last accepted registration;
	// the dataset is dirty iff dirtyEpoch >= Registry.cleanEpoch.
	dirtyEpoch int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{datasets: make(map[string]*datasetEntry)}
}

// SetPersister attaches durable storage to the registry: every later
// successful Put appends to it. Attach after recovery has replayed the
// store's existing state through Put — replay with a persister attached
// would re-append every record it reads.
func (r *Registry) SetPersister(p Persister) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.persister = p
}

// Put registers a summary under the named dataset, creating the dataset on
// first use. It returns errIncompatible (wrapped with the specific
// mismatch) when the summary's salt or kind differ
// from the dataset's. Re-posting an instance replaces its summary.
func (r *Registry) Put(dataset string, s core.Summary) error {
	return r.PutCtx(context.Background(), dataset, s)
}

// PutCtx is Put carrying the caller's context: a request span in the
// context threads through to the Persister, so the durable append
// (and any snapshot it triggers) shows up under the request's trace.
func (r *Registry) PutCtx(ctx context.Context, dataset string, s core.Summary) error {
	sp := trace.SpanFromContext(ctx)
	if dataset == "" {
		return fmt.Errorf("server: empty dataset name")
	}
	if len(dataset) > api.MaxDatasetName {
		// Enforced here, not only in the store, so the accepted-name set
		// does not depend on whether durability is configured — and so a
		// registry populated without a persister can never hold a name a
		// later SetPersister + Snapshot would choke on. The store checks
		// again at write time as a backstop (its replay validator
		// hard-fails on longer names).
		return fmt.Errorf("server: dataset name is %d bytes (max %d)", len(dataset), api.MaxDatasetName)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.datasets[dataset]
	created := !ok
	if created {
		e = &datasetEntry{
			kind:       s.Kind(),
			salt:       core.SummarySeeder(s).Salt,
			byInstance: make(map[int]core.Summary),
		}
		r.datasets[dataset] = e
	}
	if s.Kind() != e.kind {
		return fmt.Errorf("%w: dataset %q holds %s summaries, got %s",
			errIncompatible, dataset, e.kind, s.Kind())
	}
	if salt := core.SummarySeeder(s).Salt; salt != e.salt {
		return fmt.Errorf("%w: dataset %q uses salt %d, got salt %d",
			errIncompatible, dataset, e.salt, salt)
	}
	id := s.InstanceID()
	prev, hadPrev := e.byInstance[id]
	e.byInstance[id] = s
	if r.persister != nil {
		due, err := r.persister.AppendTraced(sp, dataset, s)
		if err != nil {
			// Roll back: the registry must never answer queries from state
			// the log refused — a restart would silently forget it.
			if hadPrev {
				e.byInstance[id] = prev
			} else {
				delete(e.byInstance, id)
				if created {
					delete(r.datasets, dataset)
				}
			}
			return fmt.Errorf("server: persisting summary for dataset %q: %w", dataset, err)
		}
		e.dirtyEpoch = r.epoch
		if due {
			// Cut under the lock already held: the cut is consistent with
			// the WAL position exactly, and because every cut is enqueued
			// under this lock, the persister sees cuts in order. The write
			// itself happens on the persister's background worker — Put
			// does not wait. A snapshot failure is deliberately not a Put
			// failure: the record above IS durable in the WAL; the store
			// surfaces the error in its status and backs off a full
			// interval before the next automatic attempt.
			dump, commit := r.dumpCutLocked()
			_, _ = r.persister.SnapshotTraced(sp, dump, commit, false)
		}
	} else {
		e.dirtyEpoch = r.epoch
	}
	return nil
}

// Snapshot takes an incremental cut of the registry and writes it
// through the attached persister (a no-op without one), waiting for the
// write to complete. It is the one safe entry point for explicit
// snapshots — summaryd's shutdown path, a future admin trigger — because
// it takes the registry lock BEFORE the persister's, the same order Put
// establishes, and releases it before waiting, so the persister's
// background commit can re-enter the registry.
func (r *Registry) Snapshot() error {
	r.mu.Lock()
	if r.persister == nil {
		r.mu.Unlock()
		return nil
	}
	dump, commit := r.dumpCutLocked()
	wait, err := r.persister.SnapshotTraced(nil, dump, commit, true)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	if wait != nil {
		return wait()
	}
	return nil
}

// dumpCutLocked is DumpCut for callers already holding the write lock.
func (r *Registry) dumpCutLocked() (dump func(emit func(dataset string, s core.Summary) error) error, commit func(ok bool)) {
	cutEpoch := r.epoch
	r.epoch++
	clean := r.cleanEpoch.Load()
	type cutEntry struct {
		dataset string
		s       core.Summary
	}
	var cut []cutEntry
	names := make([]string, 0, len(r.datasets))
	for name, e := range r.datasets {
		if e.dirtyEpoch >= clean {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		e := r.datasets[name]
		ids := make([]int, 0, len(e.byInstance))
		for id := range e.byInstance {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			cut = append(cut, cutEntry{dataset: name, s: e.byInstance[id]})
		}
	}
	dump = func(emit func(dataset string, s core.Summary) error) error {
		for _, en := range cut {
			if err := emit(en.dataset, en.s); err != nil {
				return err
			}
		}
		return nil
	}
	var once sync.Once
	commit = func(ok bool) {
		once.Do(func() {
			if !ok {
				// Leave every stamp dirty: the next cut re-covers this one.
				return
			}
			// Registrations accepted since the cut carry epoch >= cutEpoch+1,
			// so they stay dirty; everything the cut captured becomes clean.
			// Monotone max — a late-arriving older commit never regresses a
			// newer one (the store's FIFO worker already guarantees order;
			// this keeps the registry safe against any persister).
			for {
				cur := r.cleanEpoch.Load()
				if cur >= cutEpoch+1 || r.cleanEpoch.CompareAndSwap(cur, cutEpoch+1) {
					return
				}
			}
		})
	}
	return dump, commit
}

// MarkClean resets dirty tracking after recovery: every dataset becomes
// clean except those named — for a store-backed registry, the datasets
// with records still in the WAL (store.WALDatasets), which the snapshot
// chain does not fully cover. Without this, the first incremental
// snapshot after a restart would be a full one: recovery replays through
// Put, which marks everything dirty.
func (r *Registry) MarkClean(stillDirty []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	clean := r.cleanEpoch.Load()
	for _, e := range r.datasets {
		e.dirtyEpoch = clean - 1
	}
	for _, name := range stillDirty {
		if e, ok := r.datasets[name]; ok {
			e.dirtyEpoch = clean
		}
	}
}

// Dump iterates every stored (dataset, summary) in deterministic order —
// datasets by name, instances ascending — under the read lock. For
// snapshotting a persister-backed registry use Snapshot, not Dump (see
// the lock-order note there).
//
//summarylint:ignore shared by the tests of internal/server (persist_test.go) and internal/store (recover_property_test.go)
func (r *Registry) Dump(emit func(dataset string, s core.Summary) error) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.dumpLocked(emit)
}

// dumpLocked is Dump without locking, for callers already holding mu.
func (r *Registry) dumpLocked(emit func(dataset string, s core.Summary) error) error {
	names := make([]string, 0, len(r.datasets))
	for name := range r.datasets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := r.datasets[name]
		ids := make([]int, 0, len(e.byInstance))
		for id := range e.byInstance {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			if err := emit(name, e.byInstance[id]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Get returns the summaries of the requested instances, in the order
// given. A nil or empty instance list selects every stored instance in
// ascending order.
func (r *Registry) Get(dataset string, instances []int) ([]core.Summary, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.datasets[dataset]
	if !ok {
		return nil, fmt.Errorf("%w: dataset %q", ErrNotFound, dataset)
	}
	if len(instances) == 0 {
		instances = make([]int, 0, len(e.byInstance))
		for i := range e.byInstance {
			instances = append(instances, i)
		}
		sort.Ints(instances)
	}
	out := make([]core.Summary, len(instances))
	for j, i := range instances {
		s, ok := e.byInstance[i]
		if !ok {
			return nil, fmt.Errorf("%w: dataset %q has no instance %d", ErrNotFound, dataset, i)
		}
		out[j] = s
	}
	return out, nil
}

// info describes one dataset. Ingest uses it to bind new raw streams to
// the dataset's existing salt and kind before reading
// the request body.
func (r *Registry) info(dataset string) (api.DatasetInfo, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.datasets[dataset]
	if !ok {
		return api.DatasetInfo{}, fmt.Errorf("%w: dataset %q", ErrNotFound, dataset)
	}
	return e.info(dataset), nil
}

// count returns the number of registered datasets — the cheap health-probe
// read (list materializes per-dataset info; probes only need the count).
func (r *Registry) count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.datasets)
}

// list describes every dataset, sorted by name.
func (r *Registry) list() []api.DatasetInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]api.DatasetInfo, 0, len(r.datasets))
	for name, e := range r.datasets {
		out = append(out, e.info(name))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dataset < out[j].Dataset })
	return out
}

func (e *datasetEntry) info(name string) api.DatasetInfo {
	info := api.DatasetInfo{
		Dataset:   name,
		Kind:      e.kind,
		Salt:      e.salt,
		Instances: make([]int, 0, len(e.byInstance)),
	}
	for i, s := range e.byInstance {
		info.Instances = append(info.Instances, i)
		info.Keys += s.Size()
	}
	sort.Ints(info.Instances)
	return info
}
