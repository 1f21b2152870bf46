// Package testutil holds shared test-only helpers. It must stay
// dependency-free and is never imported by production code.
package testutil

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// VerifyNoLeaks snapshots the goroutines running when it is called and
// registers a cleanup that fails the test if goroutines created during
// the test are still running when it ends. Components that own
// goroutines (the async engine's shard workers, the store's snapshot
// worker, an http.Server) must have released all of them by then — a
// Close that returns before its workers exit is exactly the bug this
// catches.
//
// Goroutine exit is asynchronous even after a correct Close returns
// (the worker may still be between its last send and runtime.goexit),
// so the check polls with a grace period instead of failing on the
// first dirty snapshot.
//
//summarylint:ignore shared by the tests of cmd/summaryd, internal/engine and internal/store
func VerifyNoLeaks(t testing.TB) {
	t.Helper()
	base := goroutineIDs()
	t.Cleanup(func() {
		t.Helper()
		leaked := waitForDrain(base, 2*time.Second)
		if len(leaked) > 0 {
			t.Errorf("%d goroutine(s) leaked by this test:\n\n%s",
				len(leaked), strings.Join(leaked, "\n\n"))
		}
	})
}

// waitForDrain polls until every goroutine not in base has exited, or
// the grace period elapses; it returns the stacks still alive at the
// deadline.
func waitForDrain(base map[string]bool, grace time.Duration) []string {
	deadline := time.Now().Add(grace)
	for {
		leaked := newGoroutines(base)
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// goroutineIDs returns the set of currently-live goroutine IDs.
func goroutineIDs() map[string]bool {
	ids := make(map[string]bool)
	for _, g := range stacks() {
		ids[goroutineID(g)] = true
	}
	return ids
}

// newGoroutines returns the stacks of goroutines that are alive now but
// were not in base, excluding runtime-internal ones (GC workers, the
// scavenger, timer goroutines) that the runtime starts on its own
// schedule and no test can be blamed for.
func newGoroutines(base map[string]bool) []string {
	var out []string
	for _, g := range stacks() {
		if base[goroutineID(g)] {
			continue
		}
		if strings.Contains(g, "created by runtime") {
			continue
		}
		out = append(out, g)
	}
	return out
}

// stacks captures every goroutine's stack as one chunk per goroutine.
func stacks() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	return strings.Split(strings.TrimSpace(string(buf)), "\n\n")
}

// goroutineID extracts the "goroutine N [state]:" header from a stack
// chunk. The numeric ID is stable for the goroutine's lifetime and never
// reused while it runs, which is all the snapshot diff needs.
func goroutineID(chunk string) string {
	header, _, _ := strings.Cut(chunk, "\n")
	header = strings.TrimPrefix(header, "goroutine ")
	id, _, _ := strings.Cut(header, " ")
	return id
}
