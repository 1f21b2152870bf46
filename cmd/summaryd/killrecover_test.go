package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/pkg/api"
)

// TestKillRecover is durability end to end at the process level, on four
// boots of a real summaryd over one -data-dir:
//
//  1. -fsync and 64-byte WAL segments: two instances are ingested, the
//     WAL rotates, /metrics keeps the series set it booted with, counts
//     both WAL appends and carries no sharded/async engine series, and
//     /debug/traces holds the ingests' store.append spans. Then SIGKILL:
//     no shutdown hook runs.
//  2. A reboot on the same directory serves the series set of the first
//     boot, recovers both summaries (on /healthz, in
//     summaryd_store_recovery_records and as a store.recover span, so
//     main hands the store its metrics registry and tracer) and answers
//     q=sum with the same bytes as before the kill. One more ingest, then SIGTERM: the shutdown
//     path parks the registry in a snapshot.
//  3. With automatic snapshots off (-snapshot-every=-1), one more ingest
//     and a SIGTERM still leave exactly one snapshot, with a higher
//     sequence number than the one this boot started from.
//  4. A last boot recovers all four summaries and gives the same answer.
func TestKillRecover(t *testing.T) {
	dir := t.TempDir()
	const sum = "/v1/query?dataset=smoke&q=sum&instances=0"

	sd := startSummaryd(t, "-data-dir", dir, "-fsync", "-wal-segment-bytes", "64")
	boot := sd.series(t)
	sd.ingest(t, 0, "1,5\n2,7\n3,11\n")
	sd.ingest(t, 1, "1,6\n4,13\n")
	before := sd.get(t, sum)
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg")); len(segs) < 2 {
		t.Errorf("WAL segments after two ingests with -wal-segment-bytes 64: %v, want at least 2", segs)
	}
	if got := sd.series(t); !slices.Equal(got, boot) {
		t.Errorf("/metrics series changed over the ingests:\nboot: %v\nnow:  %v", boot, got)
	}
	if got := sd.metrics(t)["summaryd_store_wal_appends_total"]; got != "2" {
		t.Errorf("summaryd_store_wal_appends_total after two ingests: %q, want 2", got)
	}
	if traces := sd.get(t, "/debug/traces"); !bytes.Contains(traces, []byte(`"store.append"`)) {
		t.Errorf("no store.append span on /debug/traces after two ingests:\n%s", traces)
	}
	for _, s := range boot {
		if shardedSeries.MatchString(s) {
			t.Errorf("sharded/async engine series on /metrics: %s", s)
		}
	}
	sd.kill(t)

	sd = startSummaryd(t, "-data-dir", dir, "-wal-segment-bytes", "64")
	if got := sd.series(t); !slices.Equal(got, boot) {
		t.Errorf("/metrics series after the reboot:\n%v\nwant the first boot's:\n%v", got, boot)
	}
	if after := sd.get(t, sum); !bytes.Equal(after, before) {
		t.Errorf("q=sum after SIGKILL and reboot:\n%s\nbefore:\n%s", after, before)
	}
	sd.wantRecovered(t, 2)
	if got := sd.metrics(t)[`summaryd_store_recovery_records{outcome="applied"}`]; got != "2" {
		t.Errorf("recovery_records{outcome=applied} after the reboot: %q, want 2", got)
	}
	if traces := sd.get(t, "/debug/traces"); !bytes.Contains(traces, []byte(`"store.recover"`)) {
		t.Errorf("no store.recover span on /debug/traces after the reboot:\n%s", traces)
	}
	sd.ingest(t, 3, "5,3\n")
	sd.term(t)
	mid := lastSnapshot(t, dir)
	if mid == 0 {
		t.Fatal("no snapshot after SIGTERM")
	}

	sd = startSummaryd(t, "-data-dir", dir, "-snapshot-every=-1")
	sd.ingest(t, 2, "9,2\n")
	sd.term(t)
	if seq := lastSnapshot(t, dir); seq <= mid {
		t.Errorf("SIGTERM with -snapshot-every=-1: last snapshot %d, want past %d", seq, mid)
	}
	if snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap")); len(snaps) != 1 {
		t.Errorf("snapshots after the final one: %v, want exactly one", snaps)
	}

	sd = startSummaryd(t, "-data-dir", dir)
	if final := sd.get(t, sum); !bytes.Equal(final, before) {
		t.Errorf("q=sum on the last boot:\n%s\nbefore:\n%s", final, before)
	}
	sd.wantRecovered(t, 4)
	sd.term(t)
}

// shardedSeries matches the engine series only a sharded or async engine
// would export.
var shardedSeries = regexp.MustCompile(`^summaryd_engine_(stalls|shards|queue_depth)`)

// summaryd is a summaryd child process: this test binary re-executed with
// runMainEnv set, listening on a free loopback port.
type summaryd struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	exited chan struct{}
	err    error // Wait's result, set before exited is closed
}

// startSummaryd starts summaryd with args on a free loopback port and
// returns once /healthz answers. The process is killed when the test
// ends, and its standard error is logged if the test failed.
func startSummaryd(t *testing.T, args ...string) *summaryd {
	t.Helper()
	addr := freeAddr(t)
	sd := &summaryd{base: "http://" + addr, exited: make(chan struct{})}
	sd.cmd = exec.Command(os.Args[0], append([]string{"-addr", addr}, args...)...)
	sd.cmd.Env = append(os.Environ(), runMainEnv+"=1")
	sd.cmd.Stderr = &sd.stderr
	if err := sd.cmd.Start(); err != nil {
		t.Fatalf("starting summaryd: %v", err)
	}
	go func() {
		sd.err = sd.cmd.Wait()
		close(sd.exited)
	}()
	t.Cleanup(func() {
		sd.cmd.Process.Kill()
		<-sd.exited
		if t.Failed() {
			t.Logf("summaryd %v stderr:\n%s", args, sd.stderr.String())
		}
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(sd.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return sd
			}
		}
		select {
		case <-sd.exited:
			t.Fatalf("summaryd %v exited before it was ready: %v", args, sd.err)
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("summaryd %v not ready after 5 s: %v", args, err)
		}
	}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	return l.Addr().String()
}

// get returns the body of a GET of path, which must answer 200.
func (sd *summaryd) get(t *testing.T, path string) []byte {
	t.Helper()
	resp, err := http.Get(sd.base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s (%v)", path, resp.StatusCode, body, err)
	}
	return body
}

// ingest posts CSV pairs as a PPS instance of the dataset "smoke".
func (sd *summaryd) ingest(t *testing.T, instance int, csv string) {
	t.Helper()
	url := fmt.Sprintf("%s/v1/ingest?dataset=smoke&instance=%d&kind=pps&tau=0.5&salt=42&format=csv", sd.base, instance)
	resp, err := http.Post(url, "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatalf("ingest instance %d: %v", instance, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("ingest instance %d: %d %s", instance, resp.StatusCode, body)
	}
}

// metrics returns /metrics as a map from each series (a sample line
// without its value) to its value.
func (sd *summaryd) metrics(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, line := range strings.Split(string(sd.get(t, "/metrics")), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			out[line[:i]] = line[i+1:]
		}
	}
	return out
}

// series returns the sorted series of /metrics.
func (sd *summaryd) series(t *testing.T) []string {
	t.Helper()
	return slices.Sorted(maps.Keys(sd.metrics(t)))
}

// wantRecovered checks the summary count /healthz reports recovered.
func (sd *summaryd) wantRecovered(t *testing.T, want int64) {
	t.Helper()
	var health api.HealthResult
	if err := json.Unmarshal(sd.get(t, "/healthz"), &health); err != nil {
		t.Fatalf("decoding /healthz: %v", err)
	}
	if health.Store == nil || health.Store.RecoveredSummaries != want {
		t.Errorf("/healthz store %+v, want %d recovered summaries", health.Store, want)
	}
}

// kill ends summaryd with SIGKILL, so no shutdown path runs.
func (sd *summaryd) kill(t *testing.T) {
	t.Helper()
	if err := sd.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	<-sd.exited
}

// term sends SIGTERM and requires a clean exit within five seconds.
func (sd *summaryd) term(t *testing.T) {
	t.Helper()
	if err := sd.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case <-sd.exited:
		if sd.err != nil {
			t.Fatalf("summaryd after SIGTERM: %v", sd.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("summaryd still running 5 s after SIGTERM")
	}
}

// lastSnapshot returns the highest snapshot sequence number in dir, or 0
// if it holds no snapshot.
func lastSnapshot(t *testing.T, dir string) int {
	t.Helper()
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	last := 0
	for _, p := range snaps {
		var seq int
		if _, err := fmt.Sscanf(filepath.Base(p), "snap-%d.snap", &seq); err != nil {
			t.Fatalf("snapshot name %s: %v", p, err)
		}
		last = max(last, seq)
	}
	return last
}
