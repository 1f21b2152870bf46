// Command summaryload is the end-to-end and per-layer benchmark of
// summaryd: it builds the repository's unmodified cmd/summaryd, runs it
// as a separate process over a temporary data directory, drives one of
// four workloads against it over HTTP, checks every answer against
// reference computations made in this process, and prints the metrics
// named in BENCHMARK.json. See README.md.
//
//	bash bench/summaryload/run.sh --workload ingest_raw --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the run's full record, printed as one JSON line before the
// result line and written to the -out directory.
type report struct {
	Workload string            `json:"workload"`
	Why      string            `json:"why"`
	Trace    bool              `json:"trace"`
	Seconds  float64           `json:"seconds"`
	Env      envRecord         `json:"env"`
	Noisy    bool              `json:"noisy"`
	Counts   map[string]int    `json:"counts"`
	Detail   map[string]metric `json:"detail,omitempty"`
	Warnings []string          `json:"warnings,omitempty"`
	Problems []string          `json:"problems,omitempty"`
	Result   result            `json:"result"`
	Setups   []float64         `json:"setup_s_each,omitempty"`
	Recovers []float64         `json:"recover_s_each,omitempty"`
	Slices   []float64         `json:"slice_throughput,omitempty"`
	SliceN   []int             `json:"slice_n,omitempty"`
	SliceP50 []float64         `json:"slice_p50_ms,omitempty"`
	SliceP99 []float64         `json:"slice_p99_ms,omitempty"`
}

func main() {
	os.Exit(realMain())
}

func realMain() (code int) {
	name := flag.String("workload", "", "workload to run: ingest_raw, summary_post, query_mixed or mixed_rw")
	seed := flag.Uint64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 10, "length of the timed section")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (traced server pass plus in-process layer pass)")
	repo := flag.String("repo", ".", "root of the repository checkout")
	build := flag.String("build", "", "directory for built binaries and scratch data (default <repo>/.bench_build/summaryload)")
	out := flag.String("out", "", "directory the run's report and span trace are written to (default <build>/out)")
	flag.Parse()

	spec, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "summaryload: unknown workload %q; the workloads are:\n", *name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-13s %s\n", w.name, w.why)
		}
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "summaryload: -seconds must be positive")
		return 2
	}
	root, err := filepath.Abs(*repo)
	if err != nil {
		fmt.Fprintf(os.Stderr, "summaryload: %v\n", err)
		return 2
	}
	if *build == "" {
		*build = filepath.Join(root, ".bench_build", "summaryload")
	}
	if *out == "" {
		*out = filepath.Join(*build, "out")
	}
	tmp, err := prepareDirs(*build, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "summaryload: %v\n", err)
		return 1
	}

	// Every exit path stops the servers and removes the scratch data: a
	// normal return, an error, a panic on this goroutine (re-raised after
	// cleaning up), and SIGINT/SIGTERM (which cancel ctx, so the run
	// unwinds through the same path). The servers additionally carry
	// Pdeathsig, which covers this process being killed outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer func() {
		killAllServers()
		_ = os.RemoveAll(tmp)
		if r := recover(); r != nil {
			panic(r)
		}
	}()

	bin := filepath.Join(*build, "summaryd")
	buildTook, err := buildServer(root, bin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "summaryload: %v\n", err)
		return 1
	}
	cfg := runConfig{workload: spec, seed: *seed, seconds: *seconds, bin: bin, tmp: tmp}
	rep := &report{
		Workload: spec.name, Why: spec.why, Trace: *traceMode != 0, Seconds: *seconds,
		Env: readEnv(root, *seed), Counts: map[string]int{}, Detail: map[string]metric{},
	}
	if *traceMode == 0 {
		err = runEndToEnd(ctx, cfg, rep)
	} else {
		err = runTraced(ctx, cfg, rep, buildTook.Seconds(), *out)
	}
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "summaryload: %s: %v\n", spec.name, err)
		return 1
	}
	if err := checkContract(root, rep); err != nil {
		fmt.Fprintf(os.Stderr, "summaryload: %v\n", err)
		return 1
	}
	for _, w := range rep.Warnings {
		fmt.Fprintf(os.Stderr, "summaryload: warning: %s\n", w)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(os.Stderr, "summaryload: wrong: %s\n", p)
	}
	full, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "summaryload: %v\n", err)
		return 1
	}
	mode := "e2e"
	if rep.Trace {
		mode = "layers"
	}
	_ = os.WriteFile(filepath.Join(*out, fmt.Sprintf("report-%s-%s.json", spec.name, mode)), full, 0o644)
	last, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "summaryload: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n%s\n", full, last)
	if !rep.Result.Correct {
		return 1
	}
	return 0
}

// prepareDirs creates the build and output directories and this run's
// scratch directory, and removes scratch directories a killed earlier
// run left behind.
func prepareDirs(build, out string) (tmp string, err error) {
	for _, dir := range []string{build, out} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", err
		}
	}
	stale, _ := filepath.Glob(filepath.Join(build, "run-*"))
	for _, dir := range stale {
		var pid int
		if _, err := fmt.Sscanf(filepath.Base(dir), "run-%d", &pid); err == nil && !processAlive(pid) {
			_ = os.RemoveAll(dir)
		}
	}
	tmp = filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid()))
	return tmp, os.MkdirAll(tmp, 0o755)
}

func processAlive(pid int) bool {
	return syscall.Kill(pid, 0) == nil
}

// checkContract compares the metrics a run is about to print with the
// ones BENCHMARK.json declares for its mode — same names, same units —
// so the two cannot drift apart unnoticed.
func checkContract(root string, rep *report) error {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := decl.EndToEnd
	if rep.Trace {
		want = decl.PerLayer
	}
	got := rep.Result.Metrics
	declared := make(map[string]bool, len(want))
	for _, w := range want {
		declared[w.Name] = true
		m, ok := got[w.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json declares %s, which this run did not measure", w.Name)
		}
		if m.Unit != w.Unit {
			return fmt.Errorf("%s is reported in %s, BENCHMARK.json declares %s", w.Name, m.Unit, w.Unit)
		}
	}
	for name := range got {
		if !declared[name] {
			return fmt.Errorf("this run measured %s, which BENCHMARK.json does not declare", name)
		}
	}
	return nil
}
