package main

import (
	"context"
	"errors"
	"os"
)

// The end-to-end metrics of BENCHMARK.json. Every workload reports all
// of them; what "throughput" and "latency" are of is the workload's
// headline request (README.md has the table).
const (
	mSetup      = "setup_s"
	mThroughput = "throughput_per_s"
	mP50        = "latency_p50_ms"
	mP99        = "latency_p99_ms"
	mRecover    = "recover_s"
	mRSS        = "rss_mb"
)

// loadStats is what a timed section measured, by request class. Every
// figure but the whole-run ones is over the run's quiet fifth (stats.go).
type loadStats struct {
	throughput float64 // headline work per second: the median of the quiet slices' rates
	slices     []float64
	perSlice   []latencyStats // headline latency of each slice alone
	quiet      []bool
	headline   latencyStats
	whole      classStats // the same figures over every slice
	lagP99     float64    // p99 of send time − due time, ms
	byClass    map[opClass]classStats
	window     window
}

type classStats struct {
	lat        latencyStats
	throughput float64 // units per second, median slice
}

// measure reduces the timed samples of a run to its statistics.
func measure(in *inputs, samples []sample, w window) loadStats {
	st := loadStats{byClass: make(map[opClass]classStats), window: w}
	work := filter(samples, func(s sample) bool { return in.primary(s.class) })
	headline := work
	if in.latency != nil {
		headline = filter(samples, func(s sample) bool { return in.latency(s.class) })
	}
	if !in.perPair {
		work = perRequest(work, in.cycleOps)
	}
	sl := newSlicing(w.t0, w.t1)
	st.slices = sl.rates(work)
	st.quiet = quietSlices(st.slices)
	st.throughput = median(markedOf(st.slices, st.quiet))
	st.headline = sl.latency(headline, st.quiet)
	for i := 0; i < sl.n; i++ {
		only := make([]bool, sl.n)
		only[i] = true
		st.perSlice = append(st.perSlice, sl.latency(headline, only))
	}
	st.whole = classStats{lat: sl.latency(headline, nil), throughput: median(st.slices)}
	for c := opClass(0); c < numOpClasses; c++ {
		of := filter(samples, func(s sample) bool { return s.class == c })
		if len(of) == 0 {
			continue
		}
		st.byClass[c] = classStats{lat: sl.latency(of, st.quiet), throughput: median(markedOf(sl.rates(of), st.quiet))}
	}
	var lags []float64
	for _, s := range headline {
		lags = append(lags, float64(s.sent-s.due)/1e6)
	}
	st.lagP99 = percentile(sortedCopy(lags), 0.99)
	return st
}

// fastest is the smallest of v. recover_s is the fastest of a run's
// restarts, not their median: contention only ever slows a restart down,
// and a median of repeats all taken inside one contended stretch is that
// stretch's number. For the same reason half of the restarts are timed
// before the timed section and half after it.
func fastest(v []float64) float64 {
	best := v[0]
	for _, x := range v {
		best = min(best, x)
	}
	return best
}

// perRequest re-weights samples so that throughput counts requests, not
// pairs. With cycle > 1 the samples are one client's back-to-back
// requests in repeating cycles of that many (mixed_rw's writer: a 200 ms
// ingest, then 200 posts of 0.2 ms); each whole cycle becomes one sample
// carrying cycle units over the cycle's whole duration, so that a slice's
// rate does not depend on how many of the short bursts of posts happen to
// fall into it.
func perRequest(samples []sample, cycle int) []sample {
	if cycle <= 1 {
		out := append([]sample(nil), samples...)
		for i := range out {
			out[i].units = 1
		}
		return out
	}
	var out []sample
	for i := 0; i < len(samples); i += cycle {
		part := samples[i:min(i+cycle, len(samples))]
		c := sample{class: part[0].class, due: part[0].due, sent: part[0].sent, end: part[len(part)-1].end, units: float64(len(part)), ok: true}
		for _, s := range part {
			c.ok = c.ok && s.ok
		}
		out = append(out, c)
	}
	return out
}

// runEndToEnd is a --trace 0 run: set up, build the recovery scenario and
// time recoveries of it, run the timed section untraced, kill -9, restart
// and check every answer and every stored summary, and time the scenario's
// recoveries again. Set-up is timed setupRepeats times — the first is the
// server the run uses, the others are thrown away — and like the
// recoveries they are spread over the run, so that one contended stretch
// cannot own the median.
func runEndToEnd(ctx context.Context, cfg runConfig, rep *report) error {
	lr, took, err := setUp(ctx, cfg, false, "e2e")
	if err != nil {
		return err
	}
	defer lr.close()
	rep.Setups = append(rep.Setups, took)
	// The probe allocates, so its speed depends on how large this
	// process's heap already is; it is first read once the inputs exist,
	// as they do when it is read again at the end.
	spinBefore := spinProbe()
	extraSetUp := func() error {
		extra, took, err := setUp(ctx, cfg, false, "extra")
		if err != nil {
			return err
		}
		extra.close()
		rep.Setups = append(rep.Setups, took)
		return os.RemoveAll(extra.dir)
	}

	var t tally
	sc, err := recoveryScenario(ctx, cfg)
	if err != nil {
		return err
	}
	defer sc.close()
	scenarioLive := len(sc.liveState())
	recovers, err := timeRecoveries(ctx, cfg, sc.dir, scenarioLive, &t)
	if err != nil {
		return err
	}
	if err := extraSetUp(); err != nil {
		return err
	}

	w := lr.timedSection(ctx, cfg.seconds)
	samples := allSamples(lr.everyClient())
	rssPeak, err := lr.srv.statusMB("VmHWM")
	if err != nil {
		return err
	}
	if len(w.rssMB) == 0 {
		return errors.New("no reading of the server's resident set size")
	}
	series, _, err := lr.srv.scrape()
	if err != nil {
		return err
	}
	for _, name := range []string{"snapshots_total", "snapshot_drops_total", "segment_rotations_total", "compactions_total"} {
		rep.Counts["store_"+name] = int(series["summaryd_store_"+name])
	}

	// kill -9, restart on the same directory, and check that everything
	// acknowledged is there; then the same for the scenario's directory,
	// after the second half of its timed recoveries.
	orc := newOracle()
	lr.srv.kill()
	if _, err := orc.recoverAndCheck(ctx, lr, &t); err != nil {
		return err
	}
	after, err := timeRecoveries(ctx, cfg, sc.dir, scenarioLive, &t)
	if err != nil {
		return err
	}
	last, err := orc.recoverAndCheck(ctx, sc, &t)
	if err != nil {
		return err
	}
	recovers = append(append(recovers, after...), last)
	for len(rep.Setups) < setupRepeats {
		if err := extraSetUp(); err != nil {
			return err
		}
	}
	spinAfter := spinProbe()

	st := measure(lr.in, samples, w)
	rep.Recovers = recovers
	rep.Slices = st.slices
	for _, l := range st.perSlice {
		rep.SliceN = append(rep.SliceN, l.n)
		rep.SliceP50 = append(rep.SliceP50, l.p50)
		rep.SliceP99 = append(rep.SliceP99, l.p99)
	}
	rep.Noisy = spinNoisy(spinBefore, spinAfter)
	rep.Counts["timed_requests"] = len(samples)
	rep.Counts["appends"] = lr.appends()
	rep.Counts["live_summaries"] = len(lr.liveState())
	rep.Counts["scenario_live_summaries"] = scenarioLive
	rep.Counts["n_headline_quiet"] = st.headline.n
	rep.Counts["n_headline_whole"] = st.whole.lat.n
	for k, v := range lr.in.counts {
		rep.Counts[k] = v
	}
	rep.Detail["window_s"] = metric{w.seconds(), "s"}
	rep.Detail["rss_peak_mb"] = metric{rssPeak, "MB"}
	rep.Detail["start_s"] = metric{lr.startS, "s"}
	rep.Detail["env.spin_ms_before"] = metric{spinBefore, "ms"}
	rep.Detail["env.spin_ms_after"] = metric{spinAfter, "ms"}
	rep.Detail["server_cpu_cores"] = metric{w.cpuS / w.seconds(), "cores"}
	rep.Detail["generator_lag_p99_ms"] = metric{st.lagP99, "ms"}
	rep.Detail["whole_run_throughput_per_s"] = metric{st.whole.throughput, "1/s"}
	rep.Detail["whole_run_p50_ms"] = metric{st.whole.lat.p50, "ms"}
	rep.Detail["whole_run_p99_ms"] = metric{st.whole.lat.p99, "ms"}
	for c, cs := range st.byClass {
		n := opClassNames[c]
		rep.Counts["n_"+n] = cs.lat.n
		rep.Detail[n+"_p50_ms"] = metric{cs.lat.p50, "ms"}
		rep.Detail[n+"_p99_ms"] = metric{cs.lat.p99, "ms"}
		rep.Detail[n+"_per_s"] = metric{cs.throughput, "1/s"}
	}
	rep.Problems = t.problems
	rep.Result = result{
		Correct:   t.failed == 0 && st.headline.n > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			mSetup:      {median(rep.Setups), "s"},
			mThroughput: {st.throughput, "1/s"},
			mP50:        {st.headline.p50, "ms"},
			mP99:        {st.headline.p99, "ms"},
			mRecover:    {fastest(recovers), "s"},
			mRSS:        {median(w.rssMB), "MB"},
		},
	}
	return nil
}
