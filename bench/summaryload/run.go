package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runConfig is what the command line fixes for one run.
type runConfig struct {
	workload workloadSpec
	seed     uint64
	seconds  float64
	bin      string // the built summaryd
	tmp      string // scratch directory of this run, removed at exit
}

const (
	setupRepeats   = 3 // set-ups per run; setup_s is their median
	recoverRepeats = 3 // recoveries timed before and again after the timed section
	startTimeout   = 60 * time.Second
)

// tally counts what the contract's last line reports.
type tally struct {
	attempted int
	failed    int
	problems  []string // first few failures, for the report
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.problems) < 10 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// liveRun is a started server with its workload's inputs loaded.
type liveRun struct {
	cfg     runConfig
	in      *inputs
	srv     *serverProc
	dir     string
	startS  float64 // exec → first healthy /healthz
	loader  *loadClient
	clients []*loadClient
	reader  *loadClient
	epoch   time.Time
}

func (lr *liveRun) everyClient() []*loadClient {
	out := []*loadClient{lr.loader}
	out = append(out, lr.clients...)
	if lr.reader != nil {
		out = append(out, lr.reader)
	}
	return out
}

func (lr *liveRun) close() {
	for _, lc := range lr.everyClient() {
		if lc != nil {
			lc.close()
		}
	}
	lr.srv.kill()
}

// setUp generates the workload's inputs from the seed, starts a server on
// a fresh data directory and preloads it: everything a user of this
// workload pays before the first timed request, except compiling.
func setUp(ctx context.Context, cfg runConfig, traced bool, tag string) (lr *liveRun, seconds float64, err error) {
	start := time.Now()
	in, err := cfg.workload.build(cfg.seed)
	if err != nil {
		return nil, 0, fmt.Errorf("generating %s: %w", cfg.workload.name, err)
	}
	lr, err = launch(ctx, cfg, in, traced, tag)
	return lr, time.Since(start).Seconds(), err
}

// launch starts a server on a fresh data directory, sends it the
// workload's preload and opens the load clients at the start of their
// streams.
func launch(ctx context.Context, cfg runConfig, in *inputs, traced bool, tag string) (*liveRun, error) {
	dir := filepath.Join(cfg.tmp, "data-"+tag)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv, err := startServer(cfg.bin, dir, traced)
	if err != nil {
		return nil, err
	}
	lr := &liveRun{cfg: cfg, in: in, srv: srv, dir: dir, epoch: time.Now()}
	_, took, err := srv.waitHealthy(startTimeout)
	if err != nil {
		lr.close()
		return nil, err
	}
	lr.startS = took.Seconds()
	pre := in.preload
	lr.loader = newLoadClient(srv.base, func(j int) *request { return pre[j] })
	for range pre {
		lr.loader.issue(ctx, lr.epoch, -1, false)
	}
	for _, st := range in.streams {
		lr.clients = append(lr.clients, newLoadClient(srv.base, st))
	}
	if in.reader != nil {
		lr.reader = newLoadClient(srv.base, in.reader)
	}
	return lr, nil
}

// window is the timed section of a run.
type window struct {
	t0, t1 int64
	cpuS   float64   // server CPU seconds consumed inside it
	rssMB  []float64 // the server's resident set size, read every rssEvery
}

const rssEvery = 100 * time.Millisecond

func (w window) seconds() float64 { return float64(w.t1-w.t0) / 1e9 }

// timedSection warms the server up, then runs the workload's timed
// section: the closed-loop clients for seconds, or — for mixed_rw — the
// open-loop reader's seconds·rate queries beside the closed-loop writer.
func (lr *liveRun) timedSection(ctx context.Context, seconds float64) window {
	in := lr.in
	runUntimed(ctx, lr.epoch, lr.clients, in.warmOps)
	if lr.reader != nil {
		runUntimed(ctx, lr.epoch, []*loadClient{lr.reader}, queryWarmOps)
	}
	cpu0, _ := lr.srv.cpuSeconds()
	var w window
	sampled := make(chan struct{})
	timed := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-timed:
				return
			case <-tick.C:
				if mb, err := lr.srv.statusMB("VmRSS"); err == nil {
					w.rssMB = append(w.rssMB, mb)
				}
			}
		}
	}()
	if lr.reader == nil {
		w.t0, w.t1 = runClosedLoop(ctx, lr.epoch, lr.clients, seconds)
	} else {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			runUntil(ctx, lr.epoch, lr.clients[0], stop)
		}()
		w.t0, w.t1 = runOpenLoop(ctx, lr.epoch, lr.reader, mixedReaderRate, int(seconds*mixedReaderRate))
		close(stop)
		<-done
	}
	close(timed)
	<-sampled
	cpu1, _ := lr.srv.cpuSeconds()
	w.cpuS = cpu1 - cpu0
	return w
}

// appends counts the writes the server has acknowledged since it started.
func (lr *liveRun) appends() int {
	n := 0
	for _, lc := range lr.everyClient() {
		for _, rec := range lc.records {
			if rec.err == nil && !rec.req.class.isQuery() {
				n++
			}
		}
	}
	return n
}

// recoveryScenario builds the data directory recover_s is measured on,
// the same for every workload: summary_post's clients send a server
// exactly scenarioWrites posts from the start of their streams, pausing
// at every snapshot cut until the background snapshot of that cut is on
// disk, and the server is killed. What recovery then reads — a two-file
// snapshot chain and half a snapshot interval of WAL — is a function of
// the seed alone. The timed run's own directory will not do: what it
// holds depends on how fast the run went (how many writes fitted, whether
// a background snapshot was skipped because the previous one was still
// running), and after ingest_raw or query_mixed it is so small that a
// restart times little but the process's start.
func recoveryScenario(ctx context.Context, cfg runConfig) (*liveRun, error) {
	in, err := buildSummaryPost(cfg.seed)
	if err != nil {
		return nil, err
	}
	lr, err := launch(ctx, cfg, in, false, "scenario")
	if err != nil {
		return nil, err
	}
	for left := scenarioWrites; left > 0 && ctx.Err() == nil; {
		chunk := min(snapshotEvery-lr.appends()%snapshotEvery, left)
		per := chunk / len(lr.clients)
		runUntimed(ctx, lr.epoch, lr.clients, per)
		runUntimed(ctx, lr.epoch, lr.clients[:1], chunk-per*len(lr.clients))
		left -= chunk
		if lr.appends()%snapshotEvery == 0 && !lr.snapshotDone(ctx) {
			lr.close()
			return nil, fmt.Errorf("background snapshot did not finish within %v", snapshotWait)
		}
	}
	lr.srv.kill()
	return lr, nil
}

const snapshotWait = 20 * time.Second

// snapshotDone waits until the snapshot of the cut just taken has
// completed: the store then deletes the segments the cut covered, and
// with no write since, /healthz reports an empty WAL.
func (lr *liveRun) snapshotDone(ctx context.Context) bool {
	deadline := time.Now().Add(snapshotWait)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		hr, err := lr.srv.health()
		if err == nil && hr.Store != nil && hr.Store.WALRecords == 0 {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// recoverOnce starts summaryd over a killed data directory and returns
// the seconds from exec to /healthz answering — summaryd listens only
// once the store has replayed — and the server, still running. want is
// how many summaries it must report recovered.
func recoverOnce(cfg runConfig, dir string, want int, t *tally) (float64, *serverProc, error) {
	srv, err := startServer(cfg.bin, dir, false)
	if err != nil {
		return 0, nil, err
	}
	hr, took, err := srv.waitHealthy(startTimeout)
	if err != nil {
		srv.kill()
		return 0, nil, err
	}
	t.attempted++
	if hr.Store == nil || hr.Store.RecoveredSummaries != int64(want) {
		got := int64(-1)
		if hr.Store != nil {
			got = hr.Store.RecoveredSummaries
		}
		t.fail("recovery of %s: recovered_summaries %d, want %d", filepath.Base(dir), got, want)
	}
	return took.Seconds(), srv, nil
}

// timeRecoveries times recoverRepeats restarts, each over its own copy of
// a killed data directory: a recovery compacts the snapshot chain, so a
// directory can be recovered from its killed state only once.
func timeRecoveries(ctx context.Context, cfg runConfig, dir string, want int, t *tally) ([]float64, error) {
	var times []float64
	for i := 0; i < recoverRepeats; i++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		target := dir + "-copy"
		if err := copyDir(dir, target); err != nil {
			return nil, err
		}
		took, srv, err := recoverOnce(cfg, target, want, t)
		if err != nil {
			return nil, err
		}
		srv.kill()
		_ = os.RemoveAll(target)
		times = append(times, took)
	}
	return times, nil
}
