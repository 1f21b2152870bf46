package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.5); got != 7 {
		t.Errorf("quantile of one = %v", got)
	}
}

func TestGatePairVerdicts(t *testing.T) {
	runs := func(allocs int64, ns ...float64) []Result {
		rs := make([]Result, len(ns))
		for i, v := range ns {
			rs[i] = Result{NsPerOp: v, AllocsPerOp: allocs, HasAllocs: true, Runs: 1}
		}
		return rs
	}
	pin := func(allocs int64) *int64 { return &allocs }
	s := pairSamples{
		parent: map[string][]Result{
			"BenchmarkSame":    runs(2, 100, 90, 110, 100, 300), // one outlier: the median ignores it
			"BenchmarkSlower":  runs(2, 100, 100, 100),
			"BenchmarkOneOff":  runs(2, 100, 100, 100),
			"BenchmarkFaster":  runs(2, 100, 100, 100),
			"BenchmarkAllocs":  runs(2, 100, 100, 100),
			"BenchmarkMissing": runs(0, 100),
		},
		change: map[string][]Result{
			"BenchmarkSame":   runs(2, 105, 95, 100, 100, 20),
			"BenchmarkSlower": runs(2, 120, 80, 111), // median 111: +11 %
			"BenchmarkFaster": runs(2, 60, 70, 65),
			"BenchmarkOneOff": append(runs(2, 100, 100), runs(9, 100)...), // one run over the pin
			"BenchmarkAllocs": runs(3, 100, 100, 100),                     // over the pin in a typical run
		},
	}
	base := Baseline{Benchmarks: map[string]BaselineEntry{
		"BenchmarkAllocs": {NsPerOp: 1, AllocsPerOp: pin(2)},
		"BenchmarkOneOff": {NsPerOp: 1, AllocsPerOp: pin(2)},
	}}
	rep := gatePair(s, base, 0.10)
	status := make(map[string]string)
	for _, e := range rep.Rows {
		status[e.Name] = e.Status
	}
	want := map[string]string{
		"BenchmarkSame":    "ok",
		"BenchmarkSlower":  "regressed",
		"BenchmarkFaster":  "ok",
		"BenchmarkOneOff":  "ok",
		"BenchmarkAllocs":  "regressed",
		"BenchmarkMissing": "missing",
	}
	for name, w := range want {
		if status[name] != w {
			t.Errorf("%s: status %q, want %q", name, status[name], w)
		}
	}
	if len(rep.Failures) != 3 {
		t.Errorf("failures = %v, want 3", rep.Failures)
	}
	for _, e := range rep.Rows {
		if e.Name == "BenchmarkFaster" && e.Ratio != 0.65 {
			t.Errorf("faster row ratio %v, want 0.65", e.Ratio)
		}
	}
}

// TestRunPairAlternates drives the runner with two scripts standing in for
// test binaries: each run appends its name and -test.bench pattern to a
// log, so the order of the runs is visible, and prints the result lines
// of two rows.
func TestRunPairAlternates(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "log")
	script := func(name, ns string) string {
		path := filepath.Join(dir, name)
		body := "#!/bin/sh\necho " + name + " \"$4\" >> " + log + "\n" +
			"echo 'BenchmarkX/n=1-2 \t 10 \t " + ns + " ns/op \t 0 B/op \t 1 allocs/op'\n" +
			"echo 'BenchmarkY-2 \t 10 \t " + ns + " ns/op \t 0 B/op \t 1 allocs/op'\n"
		if err := os.WriteFile(path, []byte(body), 0o755); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cfg := pairConfig{parent: script("a", "100"), change: script("b", "90"), turns: 2, bench: "X|Y", benchtime: "1x"}
	s, err := runPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	want := `a X|Y
a ^BenchmarkX$/^n=1$
b ^BenchmarkX$/^n=1$
a ^BenchmarkY$
b ^BenchmarkY$
b ^BenchmarkX$/^n=1$
a ^BenchmarkX$/^n=1$
b ^BenchmarkY$
a ^BenchmarkY$
`
	if string(got) != want {
		t.Errorf("runs:\n%s\nwant (the listing, then each row on both, ABBA):\n%s", got, want)
	}
	for _, row := range []string{"BenchmarkX/n=1", "BenchmarkY"} {
		if len(s.parent[row]) != 2 || len(s.change[row]) != 2 {
			t.Fatalf("%s: samples %+v", row, s)
		}
	}
	if rep := gatePair(s, Baseline{}, 0.10); len(rep.Failures) != 0 || rep.Rows[0].Ratio != 0.9 {
		t.Errorf("report %+v", rep)
	}
}
