package obs_test

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func render(t *testing.T, r *obs.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

func TestCounterGaugeExposition(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("test_requests_total", "requests served", obs.Labels{"endpoint": "/v1/query", "code": "2xx"})
	g := r.Gauge("test_in_flight", "requests in flight", nil)
	r.CounterFunc("test_pairs_total", "pairs", nil, func() uint64 { return 42 })
	r.GaugeFunc(
		"test_chain", "chain length", obs.Labels{"kind": "snap"}, func() float64 { return 3 })

	c.Add(4)
	c.Inc()
	g.Set(7)
	g.Dec()

	out := render(t, r)
	for _, want := range []string{
		"# TYPE test_requests_total counter\n",
		`test_requests_total{code="2xx",endpoint="/v1/query"} 5` + "\n",
		"# TYPE test_in_flight gauge\n",
		"test_in_flight 6\n",
		"# HELP test_pairs_total pairs\n",
		"test_pairs_total 42\n",
		`test_chain{kind="snap"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if c.Value() != 5 || g.Value() != 6 {
		t.Errorf("Value() = %d, %d, want 5, 6", c.Value(), g.Value())
	}
}

// TestHistogramBucketing pins the edge cases: 0 lands in the first
// bucket (le is inclusive), values past every bound land only in +Inf,
// negative and NaN observations are rejected entirely.
func TestHistogramBucketing(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("test_latency_seconds", "latency", nil, []float64{0.001, 0.01, 0.1})

	if !h.Observe(0) {
		t.Error("Observe(0) rejected; zero durations are legal")
	}
	if h.Observe(-0.5) {
		t.Error("Observe(-0.5) accepted; negative durations must be rejected")
	}
	if h.Observe(math.NaN()) {
		t.Error("Observe(NaN) accepted")
	}
	if !h.Observe(math.Inf(1)) {
		t.Error("Observe(+Inf) rejected; it belongs in the +Inf bucket")
	}
	h.Observe(0.001) // exactly on a bound: le is inclusive, bucket le=0.001
	h.Observe(0.05)
	h.Observe(99)

	out := render(t, r)
	for _, want := range []string{
		"# TYPE test_latency_seconds histogram\n",
		`test_latency_seconds_bucket{le="0.001"} 2` + "\n", // 0 and 0.001
		`test_latency_seconds_bucket{le="0.01"} 2` + "\n",
		`test_latency_seconds_bucket{le="0.1"} 3` + "\n", // +0.05
		`test_latency_seconds_bucket{le="+Inf"} 5` + "\n",
		"test_latency_seconds_count 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5 (rejected observations must not count)", h.Count())
	}
	if sum := h.Sum(); !math.IsInf(sum, 1) {
		t.Errorf("Sum = %v, want +Inf (the +Inf observation is part of the sum)", sum)
	}

	if !h.ObserveDuration(time.Millisecond) {
		t.Error("ObserveDuration(1ms) rejected")
	}
	if h.ObserveDuration(-time.Second) {
		t.Error("ObserveDuration(-1s) accepted; negative durations must be rejected")
	}
}

// TestNilSafety: a component built without a registry holds nil
// instruments and a nil *Registry; every call site must be a no-op, not
// a panic.
func TestNilSafety(t *testing.T) {
	var r *obs.Registry
	c := r.Counter("x_total", "x", nil)
	g := r.Gauge("x", "x", nil)
	h := r.Histogram("x_seconds", "x", nil, nil)
	r.CounterFunc("y_total", "y", nil, func() uint64 { return 1 })
	r.GaugeFunc("y", "y", nil, func() float64 { return 1 })
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(2)
	if h.Observe(1) {
		t.Error("nil histogram accepted an observation")
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments reported nonzero values")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil registry WritePrometheus: %v", err)
	}
}

func TestRegistrationPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := obs.NewRegistry()
	r.Counter("dup_total", "d", nil)
	expectPanic("duplicate series", func() { r.Counter("dup_total", "d", nil) })
	expectPanic("type mismatch", func() { r.Gauge("dup_total", "d", obs.Labels{"a": "b"}) })
	expectPanic("invalid metric name", func() { r.Counter("0bad", "d", nil) })
	expectPanic("invalid label name", func() { r.Counter("ok_total", "d", obs.Labels{"0bad": "v"}) })
	expectPanic("non-ascending bounds", func() { r.Histogram("h_seconds", "d", nil, []float64{1, 1}) })
	// Distinct labels under one name are one family, not a duplicate.
	r.Counter("dup_total", "d", obs.Labels{"a": "b"})
}

// TestConcurrentUse hammers one registry from many goroutines while
// scraping it, for the race detector: counters must end exact, and every
// intermediate render must be internally consistent for histograms
// (bucket cumulative == _count).
func TestConcurrentUse(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("cc_total", "c", nil)
	g := r.Gauge("cc_depth", "g", nil)
	h := r.Histogram("cc_seconds", "h", nil, nil)

	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i%7) / 1000)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			out := render(t, r)
			if !strings.Contains(out, "cc_total") {
				t.Error("scrape lost a family")
				return
			}
		}
	}()
	wg.Wait()
	<-done

	if c.Value() != workers*perWorker {
		t.Errorf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	if h.Count() != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	out := render(t, r)
	if !strings.Contains(out, `cc_seconds_bucket{le="+Inf"} 8000`) {
		t.Errorf("final +Inf bucket != total observations:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("esc_total", "line1\nline2 and \\slash", obs.Labels{"path": "a\"b\\c\nd"})
	out := render(t, r)
	if !strings.Contains(out, `# HELP esc_total line1\nline2 and \\slash`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `esc_total{path="a\"b\\c\nd"} 0`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}
