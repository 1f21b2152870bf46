//go:build race

// Race-detector stress test for the registry's concurrent surface:
// writers (Put on several datasets), the persistence cut path
// (DumpCut's dump/commit closures, which read registry state after the
// lock is released), and lock-free readers (healthz, List, Get) all at
// once. Gated on the race build: the assertions are weak on purpose —
// the -race instrumentation is the test.
package server

import (
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

func TestStressRegistryPutDumpCutHealthz(t *testing.T) {
	reg := NewRegistry()
	srv := New(reg, engine.Config{})

	start := make(chan struct{})
	done := make(chan struct{})

	// Writers: one dataset per goroutine, monotonically increasing
	// instance IDs (the registry rejects duplicate instances).
	var writers sync.WaitGroup
	for _, ds := range []string{"alpha", "beta", "gamma"} {
		writers.Add(1)
		go func(ds string) {
			defer writers.Done()
			<-start
			for i := 0; i < 300; i++ {
				if err := reg.Put(ds, persistSummary(i)); err != nil {
					t.Errorf("put %s/%d: %v", ds, i, err)
					return
				}
			}
		}(ds)
	}

	var aux sync.WaitGroup

	// Cutter: take consistent cuts and walk them while writers run. The
	// dump closure iterates a frozen cut after the registry lock is
	// dropped, so it races with Put unless the cut really is detached.
	aux.Add(1)
	go func() {
		defer aux.Done()
		<-start
		ok := false
		for {
			select {
			case <-done:
				return
			default:
			}
			dump, commit := reg.DumpCut()
			if err := dump(func(string, core.Summary) error { return nil }); err != nil {
				t.Errorf("dump: %v", err)
			}
			ok = !ok
			commit(ok)
		}
	}()

	// Probes: the healthz handler and the read-only registry surface.
	for i := 0; i < 2; i++ {
		aux.Add(1)
		go func() {
			defer aux.Done()
			<-start
			for {
				select {
				case <-done:
					return
				default:
				}
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
				if rec.Code != 200 {
					t.Errorf("healthz = %d", rec.Code)
					return
				}
				reg.count()
				reg.list()
			}
		}()
	}

	close(start)
	writers.Wait()
	close(done)
	aux.Wait()

	if got := reg.count(); got != 3 {
		t.Fatalf("datasets after stress = %d, want 3", got)
	}
}

// DumpCut takes a consistent incremental cut: a dump over exactly the
// datasets dirty since the last committed snapshot, plus the commit
// callback that marks them clean. The cut is captured under a brief
// write lock — registered summaries are immutable, so capturing
// references is enough — and the returned dump runs lock-free, which is
// what lets a persister write it in the background while registrations
// continue.
func (r *Registry) DumpCut() (dump func(emit func(dataset string, s core.Summary) error) error, commit func(ok bool)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dumpCutLocked()
}
