// Command summaryd runs the summary server: an HTTP service that accepts
// posted summaries (v1 JSON or v2 binary wire format) or raw CSV/ndjson pair
// streams (summarized on arrival through the in-line engine pipeline,
// one instance per request via /v1/ingest or every instance of a dataset
// in one scan via /v1/ingest/multi) and answers distinct / max-dominance /
// quantile / sum queries over any stored subset — the paper's
// dispersed-data workflow as a service.
//
// Usage:
//
//	summaryd                        # listen on :8080
//	summaryd -addr :9090            # custom listen address
//	summaryd -data-dir /var/lib/summaryd  # durable registry (WAL + snapshots)
//	summaryd -data-dir d -fsync -snapshot-every 1000  # power-loss durable
//	summaryd -log-format json -log-level debug  # structured ops logging
//	summaryd -pprof-addr 127.0.0.1:6060         # profiling side listener
//	summaryd -trace-ring 512                    # keep more traces in memory
//	summaryd -trace=false                       # disable request tracing
//
// -data-dir makes the registry durable: every accepted summary and
// ingest result is appended to a write-ahead log in that directory
// before the request is acknowledged. The log rotates into bounded
// segment files (-wal-segment-bytes caps each one), and every
// -snapshot-every records a snapshot of the whole registry is written by
// a background worker while requests keep flowing; the older snapshot and
// the covered segments are then deleted. A restart replays snapshot +
// live segments so stored summaries
// survive crashes — /healthz then reports the store's state under
// "store". -fsync additionally syncs the WAL on every append (durable
// against power loss, at a per-request fsync cost; without it a kill
// loses at most the page cache's tail, never consistency). Without
// -data-dir the registry is purely in-memory, as before. On
// SIGINT/SIGTERM the server drains in-flight requests
// (http.Server.Shutdown), takes a final snapshot (even when automatic
// snapshots are disabled with a negative -snapshot-every, so the next
// boot does not replay the whole log), and fsyncs the store before
// exiting.
//
// Observability: every request carries an X-Request-ID (inbound IDs from
// a fronting proxy are honored) and emits one structured log line keyed
// by it; requests at or above -slow-request log at warn with slow=true.
// GET /metrics of the main listener always serves the Prometheus text
// exposition — HTTP, ingest-engine, and (with -data-dir) durability
// series, all prefixed summaryd_, every one of them created at boot.
// -pprof-addr starts a SEPARATE listener serving net/http/pprof under
// /debug/pprof/ — keep it on a loopback or operator-only address;
// profiles are not for the data plane. -log-format selects human text
// (default) or one JSON object per line; -log-level sets the floor (debug
// silences nothing, warn keeps only slow requests and problems).
//
// -trace (on by default) records one span tree per request — handler,
// engine drain, WAL append/fsync/rotation, background snapshots — into a
// bounded in-memory ring of -trace-ring completed traces, served as JSON
// on GET /debug/traces of the main listener. Inbound W3C traceparent
// headers are honored (the request joins the caller's trace) and a
// traceparent response header is emitted next to X-Request-ID; slow / 5xx
// request log lines carry the trace_id so the matching trace is one
// /debug/traces lookup away. -trace=false removes the recording fast
// path entirely.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/server"
	"repro/internal/store"
)

// buildLogger resolves -log-format/-log-level into the process logger.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "", "info":
		lvl = slog.LevelInfo
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (debug, info, warn, error)", level)
	}
	hopts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, hopts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, hopts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (text, json)", format)
	}
}

// Connection deadlines of both listeners. A client gets readHeaderTimeout
// to finish its request headers and an idle keep-alive connection is
// closed after idleTimeout, so a peer that opens a connection and goes
// quiet cannot hold it forever. ReadTimeout and WriteTimeout stay unset
// on purpose: they would also cap the body of a legitimately slow 256 MiB
// ingest and a 30 s pprof profile.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataDir := flag.String("data-dir", "", "durability directory (WAL + snapshots); empty keeps the registry in-memory")
	snapshotEvery := flag.Int64("snapshot-every", store.DefaultSnapshotEvery, "WAL records between automatic snapshots (negative disables automatic snapshots; a final one is still taken at shutdown); each snapshot holds the whole registry and is written in the background, so posts and queries keep flowing while one runs")
	segmentBytes := flag.Int64("wal-segment-bytes", store.DefaultSegmentBytes, "size cap of one WAL segment file; the log rotates into a fresh segment past it")
	fsync := flag.Bool("fsync", false, "fsync the WAL after every accepted summary (durable against power loss)")
	pprofAddr := flag.String("pprof-addr", "", "listen address for net/http/pprof (e.g. 127.0.0.1:6060); empty disables profiling")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	slowReq := flag.Duration("slow-request", time.Second, "log requests at or above this duration at warn with slow=true (0 disables)")
	traceOn := flag.Bool("trace", true, "record request traces (W3C traceparent honored and emitted) and serve them on GET /debug/traces")
	traceRing := flag.Int("trace-ring", trace.DefaultRing, "completed traces kept in the in-memory ring served by /debug/traces")
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "summaryd: %v\n", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	// One registry feeds every layer's series and GET /metrics; the
	// observer instruments the request path and the server's engine
	// totals, the store adds its durability series at Open.
	metricsReg := obs.NewRegistry()
	observer := server.NewObserver(metricsReg,
		server.WithRequestLogger(logger),
		server.WithSlowRequest(*slowReq),
	)

	reg := server.NewRegistry()
	opts := []server.Option{server.WithObserver(observer)}
	var tracer *trace.Tracer
	if *traceOn {
		tracer = trace.New(*traceRing)
		opts = append(opts, server.WithTracer(tracer))
	}
	var st *store.Store
	if *dataDir != "" {
		openStart := time.Now()
		var err error
		st, err = store.Open(*dataDir, store.Options{
			SnapshotEvery: *snapshotEvery,
			SegmentBytes:  *segmentBytes,
			Fsync:         *fsync,
			Metrics:       metricsReg,
			Tracer:        tracer,
			Logger:        logger,
		}, reg.Put)
		if err != nil {
			logger.Error("opening store failed", "dir", *dataDir, "error", err)
			os.Exit(1)
		}
		// Attach only after Open has replayed: replay goes through reg.Put
		// too, and must not re-append what the log already holds.
		reg.SetPersister(st)
		opts = append(opts, server.WithStoreStatus(st.Status))
		status, recovery := st.Status(), st.Recovery()
		logger.Info("store recovered",
			"dir", *dataDir,
			"summaries", status.RecoveredSummaries,
			"datasets", status.RecoveredDatasets,
			"snapshot_entries", status.SnapshotEntries,
			"wal_records", status.WALRecords,
			"wal_segments", status.WALSegments,
			"quarantined", status.QuarantinedFiles,
			"fsync", *fsync,
			"duration", time.Since(openStart),
			"verify", recovery.Verify,
			"apply", recovery.Apply,
			"applied", recovery.Applied,
			"superseded", recovery.Superseded,
			"recovery_bytes", recovery.Bytes,
		)
	}

	srv := newHTTPServer(*addr, server.New(reg, engine.Config{}, opts...))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	// The profiling listener is deliberately separate from the data plane:
	// it binds its own (typically loopback) address, is never instrumented
	// or logged per-request, and dies with the process rather than being
	// drained — profiles in flight at shutdown are not worth waiting for.
	var pprofSrv *http.Server
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv = newHTTPServer(*pprofAddr, mux)
		go func() {
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "addr", *pprofAddr, "error", err)
			}
		}()
		logger.Info("pprof listening", "addr", *pprofAddr)
	}

	logger.Info("listening",
		"addr", *addr,
		"wire_versions", core.SupportedWireVersions(),
		"slow_request", *slowReq,
		"trace", *traceOn,
	)

	select {
	case err := <-errc:
		logger.Error("server failed", "error", err)
		os.Exit(1)
	case <-ctx.Done():
		logger.Info("shutting down")
		shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("shutdown failed", "error", err)
			os.Exit(1)
		}
		if pprofSrv != nil {
			pprofSrv.Close()
		}
		if st != nil {
			// Requests are drained; park the registry in a snapshot so the
			// next boot replays one file instead of the whole log, then
			// flush and fsync the WAL on the way out. Registry.Snapshot
			// (not st.Snapshot) keeps the registry→store lock order.
			if err := reg.Snapshot(); err != nil {
				logger.Warn("final snapshot failed; WAL still holds everything", "error", err)
			}
			if err := st.Close(); err != nil {
				logger.Error("closing store failed", "error", err)
				os.Exit(1)
			}
			logger.Info("store closed")
		}
	}
}
