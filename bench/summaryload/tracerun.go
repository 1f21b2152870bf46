package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"strconv"
)

// serverTrace is one completed trace as summaryd's GET /debug/traces
// serves it (newest first).
type serverTrace struct {
	Spans []struct {
		Name       string `json:"name"`
		DurationUS int64  `json:"duration_us"`
		Attrs      []struct {
			Key   string `json:"key"`
			Value string `json:"value"`
		} `json:"attrs"`
	} `json:"spans"`
}

// probeScanNS reads summaryd's own ingest.scan spans of the newest n
// ingest traces — the probe ingests, which are the last ingests sent —
// and returns their nanoseconds per pair. ingest.scan covers the scan
// loop including the engine pushes it makes.
func probeScanNS(srv *serverProc, n int) (float64, error) {
	resp, err := srv.hc.Get(srv.base + "/debug/traces")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var traces []serverTrace
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		return 0, fmt.Errorf("decoding /debug/traces: %w", err)
	}
	var us, pairs float64
	found := 0
	for _, tr := range traces {
		for _, sp := range tr.Spans {
			if sp.Name != "ingest.scan" {
				continue
			}
			for _, a := range sp.Attrs {
				if a.Key == "pairs" {
					if v, err := strconv.ParseFloat(a.Value, 64); err == nil {
						us += float64(sp.DurationUS)
						pairs += v
						found++
					}
				}
			}
		}
		if found >= n {
			break
		}
	}
	if pairs == 0 {
		return 0, fmt.Errorf("no ingest.scan span in /debug/traces")
	}
	return us * 1e3 / pairs, nil
}

// livePass is one server pass of a traced run: the workload for a share
// of --seconds, then the probe set.
type livePass struct {
	lr     *liveRun
	stats  loadStats
	probes probeResult
}

func runLivePass(ctx context.Context, cfg runConfig, traced bool, tag string, seconds float64, probes *probeSet) (*livePass, error) {
	lr, _, err := setUp(ctx, cfg, traced, tag)
	if err != nil {
		return nil, err
	}
	w := lr.timedSection(ctx, seconds)
	lp := &livePass{lr: lr, stats: measure(lr.in, allSamples(lr.everyClient()), w)}
	lp.probes = sendProbes(ctx, lr.srv.base, probes)
	return lp, nil
}

// runTraced is a --trace 1 run. It reports the per-layer metrics:
//
//   - an untraced server pass (the workload for half of --seconds, then
//     the probe set) gives the client.*, obs.*, process.* and the
//     /metrics-derived store.* figures;
//   - a traced pass (-trace=true -trace-ring 4096, same load) gives the
//     tracing overhead and summaryd's own scan spans, the cross-check of
//     the scan cost the layer pass can only derive by subtraction;
//   - the in-process layer pass gives everything else.
func runTraced(ctx context.Context, cfg runConfig, rep *report, buildS float64, outDir string) error {
	probes, err := genProbeSet(cfg.seed)
	if err != nil {
		return err
	}
	spinBefore := spinProbe() // with the inputs' heap in place, as in runEndToEnd
	half := cfg.seconds / 2

	plain, err := runLivePass(ctx, cfg, false, "plain", half, probes)
	if err != nil {
		return err
	}
	defer plain.lr.close()
	srv := plain.lr.srv
	series, scrapeTook, err := srv.scrape()
	if err != nil {
		return err
	}
	srv.kill()
	diskBytes, err := dirBytes(plain.lr.dir)
	if err != nil {
		return err
	}

	traced, err := runLivePass(ctx, cfg, true, "traced", half, probes)
	if err != nil {
		return err
	}
	defer traced.lr.close()
	spanScanNS, err := probeScanNS(traced.lr.srv, len(probes.ingests))
	if err != nil {
		return err
	}
	traced.lr.srv.kill()

	// The estimator-quality figures need the full 64-salt registry; the
	// query workloads have generated it already.
	accuracy := plain.lr.in.fixture
	if accuracy == nil {
		accuracy = genQueryFixture(cfg.seed, "", mdSalts, mdLargeSalts, bkDatasets)
	}
	layers, err := runLayerPass(ctx, probes, accuracy, plain.lr.dir, cfg.tmp)
	if err != nil {
		return err
	}
	if err := layers.spans.write(filepath.Join(outDir, "trace-"+cfg.workload.name+".json")); err != nil {
		return err
	}
	spinAfter := spinProbe()

	// Every answer of both passes is checked, as in an end-to-end run.
	var t tally
	orc := newOracle()
	for _, pass := range []*livePass{plain, traced} {
		orc.checkRecords(pass.lr, &t)
		orc.check(probes.fixture, pass.probes.records, &t)
	}
	sent := append(plain.lr.recordLists(), plain.probes.records)
	state := liveStateOf(sent...)
	var postedBytes float64
	for _, records := range sent {
		for _, rec := range records {
			if rec.err == nil {
				postedBytes += float64(len(rec.req.body))
			}
		}
	}

	m := layers.metrics
	pr := plain.probes
	ofClass := func(c opClass) func(*request) bool { return func(q *request) bool { return q.class == c } }
	ndjsonS := pr.p50Of(ofClass(opIngestNDJSON)) / 1e3
	csvS := pr.p50Of(ofClass(opIngestCSV)) / 1e3
	m["client.ingest_ndjson_pairs_per_s"] = metric{ingestPairs / ndjsonS, "1/s"}
	m["client.ingest_csv_pairs_per_s"] = metric{ingestPairs / csvS, "1/s"}
	m["client.post_p50_ms"] = metric{pr.p50Of(ofClass(opPost)), "ms"}
	for c := opMaxDominance; c < numOpClasses; c++ {
		m["client.query_"+opClassNames[c]+"_p50_ms"] = metric{pr.p50Of(ofClass(c)), "ms"}
	}
	small := func(q *request) bool { return q.class == opMaxDominance && !q.large }
	m["client.query_view_p50_ms"] = metric{pr.p50Of(func(q *request) bool { return small(q) && q.view }), "ms"}
	m["client.query_hydrated_p50_ms"] = metric{pr.p50Of(func(q *request) bool { return small(q) && !q.view }), "ms"}
	m["client.query_k1000_p50_ms"] = metric{pr.p50Of(small), "ms"}
	m["client.query_k8000_p50_ms"] = metric{pr.p50Of(func(q *request) bool { return q.class == opMaxDominance && q.large }), "ms"}
	allQueries := pr.p50Of(func(q *request) bool { return q.class.isQuery() })
	m["client.http_overhead_ms"] = metric{allQueries - m["server.query_us"].Value/1e3, "ms"}
	m["client.generator_lag_p99_ms"] = metric{plain.stats.lagP99, "ms"}

	derivedScan := (m["scan.ndjson_ns_per_pair"].Value + m["scan.csv_ns_per_pair"].Value) / 2
	spanScan := spanScanNS - m["engine.push_ns_per_pair"].Value
	m["scan.span_ns_per_pair"] = metric{spanScan, "ns"}
	if math.Abs(spanScan-derivedScan) > 0.20*derivedScan {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf(
			"scan cost derived by subtraction (%.0f ns/pair) and from summaryd's own spans (%.0f ns/pair) differ by more than 20%%",
			derivedScan, spanScan))
	}

	m["obs.trace_overhead_ratio"] = metric{traced.stats.throughput / plain.stats.throughput, "ratio"}
	m["obs.metrics_scrape_ms"] = metric{float64(scrapeTook.Nanoseconds()) / 1e6, "ms"}
	m["obs.metrics_series"] = metric{float64(len(series)), "count"}
	m["store.wal_bytes_per_posted_byte"] = metric{series["summaryd_store_wal_append_bytes_total"] / postedBytes, "ratio"}
	m["store.disk_bytes_per_live_byte"] = metric{float64(diskBytes) / float64(orc.liveBytes(state)), "ratio"}
	m["store.rotations"] = metric{series["summaryd_store_segment_rotations_total"], "count"}
	m["store.snapshots"] = metric{series["summaryd_store_snapshots_total"], "count"}
	m["store.snapshot_s_total"] = metric{series["summaryd_store_snapshot_seconds_sum"], "s"}
	m["process.build_s"] = metric{buildS, "s"}
	m["process.start_s"] = metric{plain.lr.startS, "s"}
	w := plain.stats.window
	m["process.cpu_s_per_mop"] = metric{w.cpuS / (plain.stats.throughput * w.seconds() / 1e6), "s"}
	m["env.spin_ms_before"] = metric{spinBefore, "ms"}
	m["env.spin_ms_after"] = metric{spinAfter, "ms"}

	rep.Noisy = spinNoisy(spinBefore, spinAfter)
	rep.Counts["spans"] = len(layers.spans.spans)
	rep.Counts["probe_requests"] = len(pr.records)
	rep.Counts["timed_requests"] = plain.stats.headline.n
	rep.Detail["plain_throughput_per_s"] = metric{plain.stats.throughput, "1/s"}
	rep.Detail["traced_throughput_per_s"] = metric{traced.stats.throughput, "1/s"}
	rep.Detail["span_ingest_scan_ns_per_pair"] = metric{spanScanNS, "ns"}
	rep.Problems = t.problems
	rep.Result = result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
	return nil
}
