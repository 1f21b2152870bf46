package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: some CPU @ 3.00GHz
BenchmarkStreamBottomKReject/pps-8     	165847118	         6.442 ns/op	       0 B/op	       0 allocs/op
BenchmarkStreamBottomKReject/exp-8     	186000000	         6.430 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineBottomK/shards=1-8      	      37	  31815163 ns/op	 527.31 MB/s
BenchmarkEngineAsync/queue=4-8         	      51	  22904811 ns/op	 732.41 MB/s	         0 stalls/op
BenchmarkEngineAsync/steady-8          	      68	  16862155 ns/op	 994.82 MB/s	       0 B/op	       0 allocs/op
PASS
ok  	repro	12.3s
`

func parseSample(t *testing.T, text string) map[string]Result {
	t.Helper()
	rs, err := ParseBench(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestParseBench(t *testing.T) {
	rs := parseSample(t, sampleOutput)
	if len(rs) != 5 {
		t.Fatalf("parsed %d results, want 5: %+v", len(rs), rs)
	}
	rej, ok := rs["BenchmarkStreamBottomKReject/pps"]
	if !ok {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	if rej.NsPerOp != 6.442 || rej.AllocsPerOp != 0 || !rej.HasAllocs {
		t.Errorf("reject result = %+v", rej)
	}
	eng := rs["BenchmarkEngineBottomK/shards=1"]
	if eng.NsPerOp != 31815163 || eng.HasAllocs {
		t.Errorf("engine result = %+v (MB/s-only line must not fake allocs)", eng)
	}
}

func TestParseBenchFoldsRepetitions(t *testing.T) {
	text := `BenchmarkX-8	100	 50.0 ns/op	 2 allocs/op
BenchmarkX-8	100	 40.0 ns/op	 3 allocs/op
BenchmarkX-8	100	 45.0 ns/op	 2 allocs/op
`
	rs := parseSample(t, text)
	r := rs["BenchmarkX"]
	if r.Runs != 3 || r.NsPerOp != 40.0 || r.AllocsPerOp != 3 {
		t.Errorf("folded result = %+v, want min ns 40, max allocs 3, 3 runs", r)
	}
}

func TestGateVerdicts(t *testing.T) {
	pin := func(allocs int64) *int64 { return &allocs }
	base := Baseline{Benchmarks: map[string]BaselineEntry{
		"BenchmarkFast":    {NsPerOp: 100, AllocsPerOp: pin(0)},
		"BenchmarkSlow":    {NsPerOp: 100, AllocsPerOp: pin(0)},
		"BenchmarkAllocs":  {NsPerOp: 100, AllocsPerOp: pin(1)},
		"BenchmarkLoose":   {NsPerOp: 100},
		"BenchmarkMissing": {NsPerOp: 100, AllocsPerOp: pin(0)},
	}}
	results := map[string]Result{
		"BenchmarkFast":   {Name: "BenchmarkFast", NsPerOp: 109, Runs: 1, HasAllocs: true},                   // +9% < slack
		"BenchmarkSlow":   {Name: "BenchmarkSlow", NsPerOp: 111, Runs: 1, HasAllocs: true},                   // +11% > slack
		"BenchmarkAllocs": {Name: "BenchmarkAllocs", NsPerOp: 90, AllocsPerOp: 2, Runs: 1, HasAllocs: true},  // faster but allocs up
		"BenchmarkLoose":  {Name: "BenchmarkLoose", NsPerOp: 90, AllocsPerOp: 160, Runs: 1, HasAllocs: true}, // no allocs pin to break
		"BenchmarkNew":    {Name: "BenchmarkNew", NsPerOp: 5, Runs: 1},
	}
	rep := gate(base, results, 0.10)
	status := make(map[string]string)
	for _, e := range rep.Benchmarks {
		status[e.Name] = e.Status
	}
	want := map[string]string{
		"BenchmarkFast":    "ok",
		"BenchmarkSlow":    "regressed",
		"BenchmarkAllocs":  "regressed",
		"BenchmarkLoose":   "ok",
		"BenchmarkNew":     "new",
		"BenchmarkMissing": "missing",
	}
	for name, w := range want {
		if status[name] != w {
			t.Errorf("%s: status %q, want %q", name, status[name], w)
		}
	}
	// Slow (+11%), Allocs (2 vs 1), Missing (not run) = 3 failures.
	if len(rep.Failures) != 3 {
		t.Errorf("failures = %v, want 3", rep.Failures)
	}
}

func TestReportRejectMetric(t *testing.T) {
	results := parseSample(t, sampleOutput)
	rep := gate(Baseline{Benchmarks: map[string]BaselineEntry{}}, results, 0.10)
	if len(rep.RejectNsPerOp) != 2 {
		t.Fatalf("reject_ns_per_op = %v, want the two reject variants", rep.RejectNsPerOp)
	}
	if rep.RejectNsPerOp["BenchmarkStreamBottomKReject/exp"] != 6.430 {
		t.Errorf("exp reject ns = %v", rep.RejectNsPerOp["BenchmarkStreamBottomKReject/exp"])
	}
}
