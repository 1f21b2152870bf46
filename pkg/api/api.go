// Package api defines the request/response bodies of the summary server's
// v1 HTTP API. The server (internal/server) and the Go client
// (pkg/client) share these types, so the two sides cannot drift — and
// they live outside internal/ so importers of pkg/client can name them.
package api

// MaxDatasetName is the longest dataset name (in bytes) the server
// accepts, with or without durability configured. The bound exists
// because the durable store's WAL frames each record with a
// length-checked name prefix; enforcing it uniformly at registration
// keeps the API identical whether or not -data-dir is set.
const MaxDatasetName = 4096

// PostResult acknowledges a stored summary (posted or built by ingest).
type PostResult struct {
	Dataset  string `json:"dataset"`
	Instance int    `json:"instance"`
	Kind     string `json:"kind"`
	// Size is the number of retained keys in the stored summary.
	Size int `json:"size"`
	// Pairs is the number of raw pairs consumed; only set by ingest.
	Pairs int64 `json:"pairs,omitempty"`
	// Wire is the wire-format version the posted summary was decoded
	// from (1 = JSON, 2 = binary); only set by summary posts.
	Wire int `json:"wire,omitempty"`
}

// MultiPostResult acknowledges a one-pass multi-instance ingest: one scan
// of a combined (key, instance, value) stream populated every listed
// instance of the dataset.
type MultiPostResult struct {
	Dataset string `json:"dataset"`
	Kind    string `json:"kind"`
	// Instances are the populated instance IDs, in request order.
	Instances []int `json:"instances"`
	// Sizes[i] is the number of retained keys in Instances[i]'s summary.
	Sizes []int `json:"sizes"`
	// Pairs is the total number of raw (key, instance, value) pairs
	// consumed by the single scan.
	Pairs int64 `json:"pairs"`
}

// HealthResult answers GET /healthz: liveness plus the number of
// registered datasets, for load-balancer probes and quick capacity reads.
// WireVersions lists the summary wire-format versions the server speaks,
// so operators (and clients) can probe format support before posting.
// Engine reports the ingest pipelines' accumulated throughput — richer
// node-health signal than the liveness bit, which multi-node placement
// and failover will probe. Store
// describes the durability subsystem when the server runs with one
// (summaryd -data-dir); a purely in-memory server omits it.
type HealthResult struct {
	Status       string        `json:"status"`
	Datasets     int           `json:"datasets"`
	WireVersions []int         `json:"wire_versions"`
	Engine       *EngineStatus `json:"engine,omitempty"`
	Store        *StoreStatus  `json:"store,omitempty"`
}

// EngineStatus is the ingest engine's health: the pair count every raw
// ingest's scan returned, and the ingests, accumulated over the server's
// lifetime. Set ingests are stateless and bypass the engine, so they
// contribute to Ingests only.
type EngineStatus struct {
	// Pairs is the total number of raw pairs the scans of pps and
	// bottom-k ingests consumed; Ingests the completed raw-ingest
	// requests.
	Pairs   uint64 `json:"pairs"`
	Ingests uint64 `json:"ingests"`
}

// StoreStatus is the durability subsystem's health: the write-ahead log's
// current extent, the last snapshot, and what recovery replayed at boot.
type StoreStatus struct {
	// Dir is the durability directory (summaryd -data-dir).
	Dir string `json:"dir"`
	// WALRecords and WALBytes measure the log written since the last
	// snapshot — the work a crash right now would replay — across all
	// retained segments; WALSegments counts those segment files (the live
	// one included).
	WALRecords  int64 `json:"wal_records"`
	WALBytes    int64 `json:"wal_bytes"`
	WALSegments int64 `json:"wal_segments"`
	// SnapshotEntries is the number of summaries in the snapshot on disk
	// (0 when none has been taken yet).
	SnapshotEntries int64 `json:"snapshot_entries"`
	// QuarantinedFiles counts files the last recovery could not account
	// for (out-of-manifest segments, unparsable names) and moved to the
	// quarantine/ subdirectory instead of replaying or deleting.
	QuarantinedFiles int `json:"quarantined_files,omitempty"`
	// LastSnapshot is the RFC 3339 time of the live snapshot; empty when
	// none exists.
	LastSnapshot string `json:"last_snapshot,omitempty"`
	// SnapshotError is the most recent snapshot failure, cleared by the
	// next success. A non-empty value with a durable WAL is degraded, not
	// lost: recovery cost grows until snapshots succeed again.
	SnapshotError string `json:"snapshot_error,omitempty"`
	// RecoveredDatasets and RecoveredSummaries count what replay restored
	// when this process opened the store.
	RecoveredDatasets  int   `json:"recovered_datasets"`
	RecoveredSummaries int64 `json:"recovered_summaries"`
	// Fsync reports whether every append is synced to stable storage
	// before being acknowledged.
	Fsync bool `json:"fsync"`
}

// DatasetInfo describes one registered dataset.
type DatasetInfo struct {
	Dataset   string `json:"dataset"`
	Kind      string `json:"kind"`
	Salt      uint64 `json:"salt"`
	Instances []int  `json:"instances"`
	Keys      int    `json:"keys"`
}

// Accuracy is the optional error-bar block of a query result: the
// standard error of the estimate it annotates (from the estimator's
// variance bound or an unbiased plug-in variance estimate) and the
// two-sided 95% normal interval half-width (1.96·stderr). Both are 0 for
// an exact answer and omitted when no bound is known for the summary
// kind; StdErr annotates the HT column where a result carries several
// estimators.
type Accuracy struct {
	StdErr float64 `json:"stderr"`
	CI95   float64 `json:"ci95"`
}

// Explain is the optional query-execution report requested with
// explain=1: which stored summaries the estimate consulted and how much
// each holds.
type Explain struct {
	// Summaries describes each consulted summary, in instance order.
	Summaries []ExplainSummary `json:"summaries"`
	// EntriesScanned totals the retained entries across the consulted
	// summaries — the work a full scan of the query touched.
	EntriesScanned int `json:"entries_scanned"`
	// BytesTouched totals the consulted summaries' Bytes.
	BytesTouched int `json:"bytes_touched"`
}

// ExplainSummary describes one consulted summary.
type ExplainSummary struct {
	Instance int    `json:"instance"`
	Kind     string `json:"kind"`
	// Entries is the number of retained keys; Bytes the length of the
	// summary's v2 encoding, which is what the server holds and a full scan
	// reads — the same however the summary arrived, and across restarts.
	Entries int `json:"entries"`
	Bytes   int `json:"bytes"`
}

// DistinctResult answers q=distinct: the estimated number of distinct
// keys across the queried set summaries, or — for a single bottom-k
// instance — the rank-conditioning distinct estimate of that instance
// (reported in HT with L = 0).
type DistinctResult struct {
	Dataset   string  `json:"dataset"`
	Instances []int   `json:"instances"`
	HT        float64 `json:"ht"`
	L         float64 `json:"l"`
	KeysUsed  int     `json:"keys_used"`
	// Accuracy gives the HT estimate's standard error when one is known
	// (set summaries: the unbiased plug-in HT variance estimate; a single
	// bottom-k summary: only when exact, as 0).
	Accuracy *Accuracy `json:"accuracy,omitempty"`
	Explain  *Explain  `json:"explain,omitempty"`
}

// DominanceResult answers q=maxdominance: the estimated max-dominance norm
// Σ_h max_i v_i(h) over two PPS summaries.
type DominanceResult struct {
	Dataset   string   `json:"dataset"`
	Instances []int    `json:"instances"`
	HT        float64  `json:"ht"`
	L         float64  `json:"l"`
	KeysUsed  int      `json:"keys_used"`
	Explain   *Explain `json:"explain,omitempty"`
}

// QuantileResult answers q=quantile: the estimated ℓ-th largest value of
// one key across the queried PPS summaries.
type QuantileResult struct {
	Dataset   string `json:"dataset"`
	Instances []int  `json:"instances"`
	Key       uint64 `json:"key"`
	// Index is ℓ, 1-based: 1 is the max, r the min.
	Index int     `json:"index"`
	HT    float64 `json:"ht"`
	// Sampled is the number of queried summaries holding the key.
	Sampled int      `json:"sampled"`
	Explain *Explain `json:"explain,omitempty"`
}

// SumResult answers q=sum: the single-instance subset-sum estimate of a
// weighted summary, or the cardinality estimate of a set summary.
type SumResult struct {
	Dataset  string  `json:"dataset"`
	Instance int     `json:"instance"`
	Sum      float64 `json:"sum"`
	// Accuracy bounds the estimate's standard error when one is known:
	// exact 0 for never-thresholded bottom-k summaries, the unbiased
	// per-key HT variance estimate for PPS, the binomial bound for set
	// cardinalities, est/√(k−2) for bottom-k.
	Accuracy *Accuracy `json:"accuracy,omitempty"`
	Explain  *Explain  `json:"explain,omitempty"`
}

// ErrorResult is the body of every non-2xx response. On wire-format
// negotiation failures (HTTP 415/406) Supported lists the summary wire
// versions the server does speak, so a client can downgrade instead of
// guessing.
type ErrorResult struct {
	Error     string `json:"error"`
	Supported []int  `json:"supported_versions,omitempty"`
}
