package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/testutil"
)

// TestGracefulShutdownSequence exercises the exact shutdown path main
// runs on SIGTERM — drain the HTTP server, park the registry in a final
// snapshot, close the store — against a live, store-backed stack, and
// verifies that no goroutine survives it: not the HTTP accept loop, not
// a per-request handler, not the store's background snapshot worker.
func TestGracefulShutdownSequence(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()

	metricsReg := obs.NewRegistry()
	reg := server.NewRegistry()
	st, err := store.Open(dir, store.Options{SnapshotEvery: 4, Metrics: metricsReg}, reg.Put)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	reg.SetPersister(st)
	reg.MarkClean(st.WALDatasets())

	srv := &http.Server{Handler: server.New(reg, engine.Config{},
		server.WithObserver(server.NewObserver(metricsReg)),
		server.WithStoreStatus(st.Status),
	)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	// Live traffic before shutdown: ingest through the registry (the
	// store appends and schedules background snapshots) and probe the
	// read endpoints over real TCP so per-connection goroutines exist.
	for i := 0; i < 10; i++ {
		s := core.NewSummarizer(7).SummarizePPS(i, dataset.Instance{1: 2, 3: 4}, 0.5)
		if err := reg.Put("shutdown-test", s); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	base := "http://" + ln.Addr().String()
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
	http.DefaultClient.CloseIdleConnections()

	// The shutdown sequence, in main's order: requests first, then the
	// final snapshot (Registry.Snapshot, keeping the registry→store lock
	// order), then the WAL flush in Close.
	shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := reg.Snapshot(); err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}

	// The final snapshot superseded the WAL; a reopen must recover
	// everything from the snapshot alone.
	reg2 := server.NewRegistry()
	st2, err := store.Open(dir, store.Options{}, reg2.Put)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	status := st2.Status()
	if status.RecoveredSummaries != 10 || status.WALRecords != 0 {
		t.Fatalf("recovery after graceful shutdown: %+v", status)
	}
	if _, err := reg2.Get("shutdown-test", nil); err != nil {
		t.Fatalf("recovered dataset missing: %v", err)
	}
}
