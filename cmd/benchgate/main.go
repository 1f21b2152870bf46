// Command benchgate compares `go test -bench` output against a committed
// baseline and fails the build on performance regressions. It is the
// in-repo stand-in for benchstat in environments where installing tools
// is off the table: plain stdlib, no dependencies.
//
// Usage:
//
//	go test -run '^$' -bench ... -benchmem -count 3 . > bench.txt
//	benchgate -baseline bench/baselines/hotpath.json bench.txt
//	benchgate -baseline bench/baselines/hotpath.json -update bench.txt
//	benchgate -baseline ... -out BENCH_hotpath.json bench.txt more.txt
//	benchgate -pair -bench 'BenchmarkScanPairs$' [-baseline ...] parent.test change.test
//
// Input files (or stdin when none are given) hold the standard text
// output of `go test -bench`. Lines that are not benchmark results are
// ignored, so raw `go test` output can be piped in unfiltered.
//
// The gate has two rules, checked per baseline benchmark:
//
//   - ns/op may not regress by more than -ns-slack (default 0.10, i.e.
//     +10%) against the baseline. With -count > 1 the minimum across
//     repetitions is compared — the minimum is the least noisy estimate
//     of the true cost on a shared machine.
//   - allocs/op may not regress at all where the baseline pins it.
//     Allocation counts are mostly deterministic, so any increase is a
//     real change, not noise; a row whose count follows the scheduler
//     (goroutines, channels) leaves allocs_per_op out and is held by
//     ns/op alone. -update pins every row it measured allocations for.
//
// A baseline benchmark missing from the input is an error: a gate that
// silently stops running its benchmarks is not a gate. Input benchmarks
// absent from the baseline are reported as "new" and pass; add them with
// -update when they should be gated.
//
// Benchmark names are normalized by stripping the trailing -N GOMAXPROCS
// suffix, so baselines do not depend on the runner's core count.
//
// -pair is the paired gate (pair.go): instead of reading results, it runs
// two `go test -c` binaries of one package by turns, a row at a time, from
// the current directory, and gates each row on the ratio of the change's
// median ns/op to the parent's and on allocations; -baseline is optional
// there and adds its allocs/op pins. It answers "did this change
// slow the row down" on a box whose absolute ns/op wander more than any
// fixed pin allows.
//
// -out writes a JSON report of every parsed benchmark (ns/op, allocs/op,
// baseline and delta when gated). Reject-path benchmarks — names
// containing "Reject" — are additionally surfaced in a top-level
// reject_ns_per_op map, the hot-path metric the CI artifact exists for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	baselinePath := flag.String("baseline", "", "baseline JSON file (required)")
	update := flag.Bool("update", false, "rewrite the baseline from the input instead of gating")
	out := flag.String("out", "", "write a JSON report of all parsed benchmarks to this file")
	nsSlack := flag.Float64("ns-slack", 0.10, "allowed fractional ns/op regression (0.10 = +10%)")
	pair := flag.Bool("pair", false, "run two test binaries (parent, change) by turns and gate on the ratio of medians")
	bench := flag.String("bench", ".", "with -pair: the -test.bench pattern")
	flag.Parse()

	if *pair {
		os.Exit(mainPair(pairConfig{turns: pairTurns, bench: *bench, benchtime: pairBenchtime}, *baselinePath, *out, pairSlack))
	}

	if *baselinePath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -baseline is required without -pair")
		os.Exit(2)
	}
	results, err := readResults(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark results in input")
		os.Exit(2)
	}

	if *update {
		if err := writeBaseline(*baselinePath, results); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("benchgate: wrote %d benchmarks to %s\n", len(results), *baselinePath)
		return
	}

	base, err := readBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	report := gate(base, results, *nsSlack)
	for _, line := range report.Lines() {
		fmt.Println(line)
	}
	if *out != "" {
		if err := report.write(*out); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
	}
	if len(report.Failures) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d regression(s)\n", len(report.Failures))
		os.Exit(1)
	}
}

// mainPair runs the paired gate on the two binaries named by the
// arguments and returns the exit status.
func mainPair(cfg pairConfig, baselinePath, out string, slack float64) int {
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "benchgate: -pair needs two test binaries, parent then change")
		return 2
	}
	cfg.parent, cfg.change = flag.Arg(0), flag.Arg(1)
	var base Baseline
	if baselinePath != "" {
		var err error
		if base, err = readBaseline(baselinePath); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			return 2
		}
	}
	samples, err := runPair(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		return 2
	}
	if len(samples.parent) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark results from the parent")
		return 2
	}
	report := gatePair(samples, base, slack)
	for _, line := range report.Lines() {
		fmt.Println(line)
	}
	if out != "" {
		if err := report.write(out); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			return 2
		}
	}
	if len(report.Failures) > 0 {
		for _, f := range report.Failures {
			fmt.Fprintln(os.Stderr, "benchgate:", f)
		}
		fmt.Fprintf(os.Stderr, "benchgate: %d regression(s)\n", len(report.Failures))
		return 1
	}
	return 0
}

func readResults(paths []string) (map[string]Result, error) {
	if len(paths) == 0 {
		return ParseBench(os.Stdin)
	}
	merged := make(map[string]Result)
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		rs, err := ParseBench(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for name, r := range rs {
			merged[name] = mergeResult(merged[name], r)
		}
	}
	return merged, nil
}

func readBaseline(path string) (Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Baseline{}, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return Baseline{}, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

func writeBaseline(path string, results map[string]Result) error {
	b := Baseline{
		Note:       "Committed perf baseline for cmd/benchgate. Regenerate with: benchgate -baseline <this file> -update <bench output>. Rows without allocs_per_op (sharded and async engine: the count follows the scheduler) are gated on ns/op alone; -update pins every count, so take those members out again.",
		Benchmarks: make(map[string]BaselineEntry, len(results)),
	}
	for name, r := range results {
		e := BaselineEntry{NsPerOp: r.NsPerOp}
		if r.HasAllocs {
			e.AllocsPerOp = &r.AllocsPerOp
		}
		b.Benchmarks[name] = e
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Baseline is the committed reference the gate compares against.
type Baseline struct {
	Note       string                   `json:"note,omitempty"`
	Benchmarks map[string]BaselineEntry `json:"benchmarks"`
}

// BaselineEntry pins one benchmark's reference cost; allocations only when
// AllocsPerOp is set.
type BaselineEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
}

// ReportEntry is one benchmark's outcome in the -out JSON report.
type ReportEntry struct {
	Name        string   `json:"name"`
	NsPerOp     float64  `json:"ns_per_op"`
	AllocsPerOp int64    `json:"allocs_per_op"`
	BaselineNs  *float64 `json:"baseline_ns_per_op,omitempty"`
	DeltaNsPct  *float64 `json:"delta_ns_pct,omitempty"`
	Status      string   `json:"status"` // "ok", "regressed", "new", "missing"
}

// Report aggregates the gate's verdicts, with reject-path ns/op pulled
// out as the first-class hot-path metric.
type Report struct {
	NsSlackPct    float64            `json:"ns_slack_pct"`
	RejectNsPerOp map[string]float64 `json:"reject_ns_per_op,omitempty"`
	Benchmarks    []ReportEntry      `json:"benchmarks"`
	Failures      []string           `json:"failures,omitempty"`
}

func gate(base Baseline, results map[string]Result, nsSlack float64) *Report {
	rep := &Report{NsSlackPct: nsSlack * 100, RejectNsPerOp: make(map[string]float64)}
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := results[name]
		e := ReportEntry{Name: name, NsPerOp: r.NsPerOp, AllocsPerOp: r.AllocsPerOp, Status: "new"}
		if isRejectPath(name) {
			rep.RejectNsPerOp[name] = r.NsPerOp
		}
		if b, ok := base.Benchmarks[name]; ok {
			e.Status = "ok"
			bns := b.NsPerOp
			e.BaselineNs = &bns
			if bns > 0 {
				pct := (r.NsPerOp/bns - 1) * 100
				e.DeltaNsPct = &pct
			}
			if bns > 0 && r.NsPerOp > bns*(1+nsSlack) {
				e.Status = "regressed"
				rep.Failures = append(rep.Failures, fmt.Sprintf(
					"%s: %.4g ns/op is %+.1f%% vs baseline %.4g (limit %+.0f%%)",
					name, r.NsPerOp, *e.DeltaNsPct, bns, nsSlack*100))
			}
			if b.AllocsPerOp != nil && r.AllocsPerOp > *b.AllocsPerOp {
				e.Status = "regressed"
				rep.Failures = append(rep.Failures, fmt.Sprintf(
					"%s: %d allocs/op vs baseline %d (any allocs/op regression fails)",
					name, r.AllocsPerOp, *b.AllocsPerOp))
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, e)
	}
	// Baseline benchmarks the input never ran: a silent gate is no gate.
	var missing []string
	for name := range base.Benchmarks {
		if _, ok := results[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		rep.Benchmarks = append(rep.Benchmarks, ReportEntry{Name: name, Status: "missing"})
		rep.Failures = append(rep.Failures, fmt.Sprintf("%s: in baseline but absent from input", name))
	}
	return rep
}

// Lines renders the per-benchmark verdicts for the build log.
func (r *Report) Lines() []string {
	lines := make([]string, 0, len(r.Benchmarks))
	for _, e := range r.Benchmarks {
		switch e.Status {
		case "missing":
			lines = append(lines, fmt.Sprintf("MISS %s (baseline benchmark not run)", e.Name))
		case "new":
			lines = append(lines, fmt.Sprintf("new  %-44s %12.4g ns/op %6d allocs/op (not gated)", e.Name, e.NsPerOp, e.AllocsPerOp))
		default:
			tag := "ok  "
			if e.Status == "regressed" {
				tag = "FAIL"
			}
			lines = append(lines, fmt.Sprintf("%s %-44s %12.4g ns/op %6d allocs/op  %+.1f%% vs baseline", tag, e.Name, e.NsPerOp, e.AllocsPerOp, *e.DeltaNsPct))
		}
	}
	return lines
}

func (r *Report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func isRejectPath(name string) bool {
	for i := 0; i+6 <= len(name); i++ {
		if name[i:i+6] == "Reject" {
			return true
		}
	}
	return false
}
