package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// The paired gate compares two `go test -c` binaries of one package — the
// parent's and the change's — on the same box in the same minutes, so that
// what the box does to both cancels. It runs them by turns, a row at a time
// and -count 1 each, pairTurns times (ABBA order: the parent first on even
// turns, the change first on odd ones), and gates each row on the ratio of
// the change's median ns/op to the parent's, against a bound above what an
// A/A run — one binary against itself — reads (pairSlack). Allocations are
// held where the baseline pins them: the change's median allocs/op may not
// exceed the pin. (The median, because a row's count can follow the
// scheduler: one run in about two hundred of an unchanged IngestRaw
// allocated 260 against its pin of 256.)

// pairSlack is the allowed rise of the ratio of medians over 1. On a
// shared 2-vCPU box, ten A/A runs of this runner over the twelve gated rows
// of ./internal/server read ratios from 0.89 to 1.17, and eight of the ten
// passed at 0.15 (the two failures: ScanPairs/csv 1.163, ScanPairs/ndjson
// 1.170). A tighter bound fails more A/A runs; a wider one misses more
// real slowdowns.
const pairSlack = 0.15

// pairTurns and pairBenchtime are how many turns a paired run takes and
// the -test.benchtime of each run of a row: the hot-path gate's benchtime,
// and the turns its A/A floor was measured with.
const (
	pairTurns     = 10
	pairBenchtime = "0.2s"
)

// pairConfig is one paired run: the two binaries, how many turns, and the
// arguments each run gets.
type pairConfig struct {
	parent, change string
	turns          int
	bench          string
	benchtime      string
}

// pairSamples holds each side's per-run results by benchmark name.
type pairSamples struct {
	parent, change map[string][]Result
}

// runPair lists the rows cfg.bench selects, from one -benchtime 1x run of
// the parent, then runs the binaries by turns, a row at a time: each turn
// runs every row on both binaries, one right after the other, so that what
// the box does in the seconds between them touches both alike.
func runPair(cfg pairConfig) (pairSamples, error) {
	s := pairSamples{parent: make(map[string][]Result), change: make(map[string][]Result)}
	run := func(bin, pattern, benchtime string) (map[string]Result, error) {
		cmd := exec.Command(bin, "-test.run", "^$", "-test.bench", pattern,
			"-test.benchmem", "-test.count", "1", "-test.benchtime", benchtime)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s: %w\n%s%s", bin, err, out, stderr.Bytes())
		}
		rs, err := ParseBench(bytes.NewReader(out))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bin, err)
		}
		return rs, nil
	}
	listed, err := run(cfg.parent, cfg.bench, "1x")
	if err != nil {
		return s, err
	}
	rows := make([]string, 0, len(listed))
	for name := range listed {
		rows = append(rows, name)
	}
	sort.Strings(rows)
	type side struct {
		bin  string
		into map[string][]Result
	}
	for turn := range cfg.turns {
		order := [2]side{{cfg.parent, s.parent}, {cfg.change, s.change}}
		if turn%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, row := range rows {
			for _, o := range order {
				rs, err := run(o.bin, rowPattern(row), cfg.benchtime)
				if err != nil {
					return s, err
				}
				if r, ok := rs[row]; ok {
					o.into[row] = append(o.into[row], r)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "benchgate: turn %d of %d done\n", turn+1, cfg.turns)
	}
	return s, nil
}

// rowPattern is the -test.bench pattern that selects the named row alone:
// each element of its path quoted and anchored.
func rowPattern(name string) string {
	parts := strings.Split(name, "/")
	for i, p := range parts {
		parts[i] = "^" + regexp.QuoteMeta(p) + "$"
	}
	return strings.Join(parts, "/")
}

// PairEntry is one row's outcome in the paired report.
type PairEntry struct {
	Name         string    `json:"name"`
	ParentNs     float64   `json:"parent_median_ns_per_op"`
	ChangeNs     float64   `json:"change_median_ns_per_op"`
	Ratio        float64   `json:"ratio"`
	ParentIQR    float64   `json:"parent_iqr_ratio"`  // (Q3 − Q1) / median of the parent's runs
	TurnRatio    float64   `json:"median_turn_ratio"` // median over turns of change ÷ parent: reported, not gated
	ParentAllocs int64     `json:"parent_median_allocs_per_op"`
	ChangeAllocs int64     `json:"change_median_allocs_per_op"`
	Runs         int       `json:"runs"`
	ParentRuns   []float64 `json:"parent_ns_per_op_runs"` // in turn order
	ChangeRuns   []float64 `json:"change_ns_per_op_runs"`
	Status       string    `json:"status"` // "ok", "regressed", "missing"
}

// PairReport is the paired gate's verdict.
type PairReport struct {
	Slack    float64     `json:"ratio_slack"`
	Rows     []PairEntry `json:"benchmarks"`
	Failures []string    `json:"failures,omitempty"`
}

// gatePair judges the samples: a row fails when its ratio of medians
// exceeds 1+slack, when the change's median allocs/op exceeds what base
// pins, and when the change never ran a row the parent did.
func gatePair(s pairSamples, base Baseline, slack float64) *PairReport {
	rep := &PairReport{Slack: slack}
	names := make([]string, 0, len(s.parent))
	for name := range s.parent {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ps, cs := s.parent[name], s.change[name]
		e := PairEntry{Name: name, Runs: len(ps), Status: "ok"}
		if len(cs) == 0 {
			e.Status = "missing"
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: run by the parent, not by the change", name))
			rep.Rows = append(rep.Rows, e)
			continue
		}
		e.ParentRuns, e.ChangeRuns = nsOf(ps), nsOf(cs)
		turns := make([]float64, min(len(ps), len(cs)))
		for i := range turns {
			turns[i] = e.ChangeRuns[i] / e.ParentRuns[i]
		}
		slices.Sort(turns)
		e.TurnRatio = quantile(turns, 0.5)
		pns, cns := slices.Sorted(slices.Values(e.ParentRuns)), slices.Sorted(slices.Values(e.ChangeRuns))
		e.ParentNs, e.ChangeNs = quantile(pns, 0.5), quantile(cns, 0.5)
		if e.ParentNs > 0 {
			e.Ratio = e.ChangeNs / e.ParentNs
			e.ParentIQR = (quantile(pns, 0.75) - quantile(pns, 0.25)) / e.ParentNs
		}
		e.ParentAllocs, e.ChangeAllocs = medianAllocs(ps), medianAllocs(cs)
		if e.Ratio > 1+slack {
			e.Status = "regressed"
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: median %.4g ns/op is %.3f× the parent's %.4g (limit %.3f×)",
				name, e.ChangeNs, e.Ratio, e.ParentNs, 1+slack))
		}
		if b, ok := base.Benchmarks[name]; ok && b.AllocsPerOp != nil && e.ChangeAllocs > *b.AllocsPerOp {
			e.Status = "regressed"
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %d allocs/op vs baseline %d (any allocs/op regression fails)", name, e.ChangeAllocs, *b.AllocsPerOp))
		}
		rep.Rows = append(rep.Rows, e)
	}
	return rep
}

// Lines renders the per-row verdicts for the build log.
func (r *PairReport) Lines() []string {
	lines := make([]string, 0, len(r.Rows))
	for _, e := range r.Rows {
		tag := map[string]string{"ok": "ok  ", "regressed": "FAIL", "missing": "MISS"}[e.Status]
		lines = append(lines, fmt.Sprintf("%s %-44s parent %11.4g  change %11.4g ns/op  ratio %.3f  (per turn %.3f, parent IQR %.1f%%, %d runs)  allocs %d → %d",
			tag, e.Name, e.ParentNs, e.ChangeNs, e.Ratio, e.TurnRatio, 100*e.ParentIQR, e.Runs, e.ParentAllocs, e.ChangeAllocs))
	}
	return lines
}

func (r *PairReport) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// nsOf lists the runs' ns/op in run order.
func nsOf(rs []Result) []float64 {
	ns := make([]float64, len(rs))
	for i, r := range rs {
		ns[i] = r.NsPerOp
	}
	return ns
}

// medianAllocs is the median allocs/op of the runs, the lower middle one
// of an even count.
func medianAllocs(rs []Result) int64 {
	as := make([]int64, len(rs))
	for i, r := range rs {
		as[i] = r.AllocsPerOp
	}
	slices.Sort(as)
	return as[(len(as)-1)/2]
}

// quantile is the q-quantile of sorted xs, interpolated between the two
// nearest ranks (the median of an even count is the mean of the middle
// two).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}
