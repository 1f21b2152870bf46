package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// These tests never start summaryd; they pin the arithmetic and the
// generator the benchmark's numbers rest on.

// testStreams builds small instances of every generated stream.
func testStreams(t *testing.T, seed uint64) map[string]string {
	t.Helper()
	ing := newIngestStream(seed, genIngestPool(seed, 't', 2, true), "t", 1, true)
	slots, err := genPostSlots(seed, "t", 2)
	if err != nil {
		t.Fatal(err)
	}
	posts := newPostStream(slots, 0, 2)
	queries := newQueryStream(seed, genQueryFixture(seed, "", 2, 1, 1), 0)
	return map[string]string{
		"ingest": streamHash(ing.request, 8),
		"post":   streamHash(posts.request, len(posts.reqs)),
		"query":  streamHash(queries.request, 200),
	}
}

func TestSameSeedSameBytesAndOrder(t *testing.T) {
	a, b, c := testStreams(t, 7), testStreams(t, 7), testStreams(t, 8)
	for name := range a {
		if a[name] != b[name] {
			t.Errorf("%s stream differs between two generations from seed 7: %s vs %s", name, a[name], b[name])
		}
		if a[name] == c[name] {
			t.Errorf("%s stream is the same for seeds 7 and 8: %s", name, a[name])
		}
	}
}

func TestIngestStreamLayout(t *testing.T) {
	st := newIngestStream(1, genIngestPool(1, 't', 2, true), "ing", 0, true)
	for j, want := range []struct {
		class    opClass
		kind     string
		instance int
	}{
		{opIngestNDJSON, "bottomk", 0}, {opIngestCSV, "bottomk", 0},
		{opIngestNDJSON, "pps", 0}, {opIngestCSV, "pps", 0},
		{opIngestNDJSON, "bottomk", 1},
	} {
		q := st.request(j)
		if q.class != want.class || q.kind != want.kind || q.instance != want.instance {
			t.Errorf("request %d: got %s %s instance %d, want %s %s instance %d",
				j, opClassNames[q.class], q.kind, q.instance, opClassNames[want.class], want.kind, want.instance)
		}
	}
	if a, b := st.request(0), st.request(2); a.salt == b.salt || a.dataset == b.dataset {
		t.Errorf("bottom-k and PPS ingests share a dataset or salt: %s/%d vs %s/%d", a.dataset, a.salt, b.dataset, b.salt)
	}
}

func TestGeneratedKeysAreDistinct(t *testing.T) {
	r := newRNG(3)
	base := genPairs(r, 50_000, 0)
	second := genSecondInstance(r, base)
	for name, p := range map[string]pairs{"base": base, "second": second} {
		seen := make(map[uint64]bool, len(p.keys))
		for i, k := range p.keys {
			if seen[k] {
				t.Fatalf("%s instance repeats key %d", name, k)
			}
			seen[k] = true
			if p.vals[i] <= 0 || p.vals[i] != round2(p.vals[i]) {
				t.Fatalf("%s instance value %v is not a positive two-decimal number", name, p.vals[i])
			}
		}
	}
	shared := 0
	inBase := make(map[uint64]bool, len(base.keys))
	for _, k := range base.keys {
		inBase[k] = true
	}
	for _, k := range second.keys {
		if inBase[k] {
			shared++
		}
	}
	if share := float64(shared) / float64(len(base.keys)); math.Abs(share-sharedShare) > 0.02 {
		t.Errorf("second instance shares %.3f of the keys, want about %.2f", share, sharedShare)
	}
}

func TestSliceRatesProrateAcrossSlices(t *testing.T) {
	// One client, ten 1 s slices, requests of 1.5 s carrying 3 units each,
	// back to back: every full slice sees exactly 2 units/s even though
	// requests straddle the slice boundaries.
	var samples []sample
	for start := int64(0); start < 9e9; start += 15e8 {
		samples = append(samples, sample{sent: start, due: start, end: start + 15e8, units: 3, ok: true})
	}
	sl := newSlicing(0, 10e9)
	if sl.n != 10 {
		t.Fatalf("a 10 s window has %d slices, want 10", sl.n)
	}
	rates := sl.rates(samples)
	for i, r := range rates[:9] {
		if math.Abs(r-2) > 1e-9 {
			t.Errorf("slice %d: %v units/s, want 2", i, r)
		}
	}
	// A failed request acknowledges no work.
	samples[0].ok = false
	if rates := sl.rates(samples); rates[0] != 0 {
		t.Errorf("slice 0 credits a failed request: %v", rates[0])
	}
	// A window that is not a whole number of seconds gets slices a little
	// wider than a second, never a short one at the end.
	if sl := newSlicing(0, 10.7e9); sl.n != 10 || math.Abs(sl.width()-1.07e9) > 1 {
		t.Errorf("10.7 s window: %d slices of %v ns", sl.n, sl.width())
	}
}

func TestQuietFifthLeavesContendedStretchesOut(t *testing.T) {
	// One closed-loop client for ten seconds. A neighbour has the machine
	// for all of it but seconds 3 and 7: requests take 20 ms instead of 10.
	// The quiet fifth is those two slices, so throughput and both
	// latencies are the undisturbed ones; the whole-run figures are not.
	var samples []sample
	for at := int64(0); at < 10e9; {
		lat := int64(20e6)
		if at/1e9 == 3 || at/1e9 == 7 {
			lat = 10e6
		}
		samples = append(samples, sample{due: at, sent: at, end: at + lat, units: 1, ok: true})
		at += lat
	}
	sl := newSlicing(0, 10e9)
	rates := sl.rates(samples)
	quiet := quietSlices(rates)
	for i, q := range quiet {
		if q != (i == 3 || i == 7) {
			t.Errorf("slice %d quiet = %v (rates %v)", i, q, rates)
		}
	}
	if got := median(markedOf(rates, quiet)); math.Abs(got-100) > 1e-6 {
		t.Errorf("quiet throughput %v, want 100", got)
	}
	if got := sl.latency(samples, quiet); got.n != 200 || got.p50 != 10 || got.p99 != 10 {
		t.Errorf("quiet fifth: n=%d p50=%v p99=%v, want 200, 10, 10", got.n, got.p50, got.p99)
	}
	// (The request that ends exactly at the window's edge is in no slice.)
	if got := sl.latency(samples, nil); got.n != 599 || got.p50 != 20 || got.p99 != 20 {
		t.Errorf("whole run: n=%d p50=%v p99=%v, want 599, 20, 20", got.n, got.p50, got.p99)
	}
	// The fifth rounds up; equal rates go to the earlier slice.
	if q := quietSlices([]float64{1, 1, 1, 1, 1, 1}); !q[0] || !q[1] || q[2] {
		t.Errorf("quietSlices of six equal rates = %v", q)
	}
}

func TestTailKeepsTenSamplesBeyondIt(t *testing.T) {
	upTo := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{2000, 1980}, // nearest-rank p99
		{1000, 990},
		{100, 90}, // p99 would be the 99th: one sample beyond it
		{70, 60},
		{15, 8}, // never below the median
		{1, 1},
	} {
		if got := tail(upTo(c.n)); got != c.want {
			t.Errorf("tail of 1..%d = %v, want %v", c.n, got, c.want)
		}
	}
	if p := percentile(upTo(100), 0.99); p != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", p)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", m)
	}
}

func TestSpanSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "root", StartNS: 0, EndNS: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 50},
		{Trace: 1, ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 70},  // overlaps a
		{Trace: 1, ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 120}, // sticks out past the root
		{Trace: 1, ID: 5, Parent: 2, Name: "a.inner", StartNS: 20, EndNS: 30},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1: 100 - (60 + 10), // children cover [10,70) and [90,100)
		2: 40 - 10,
		3: 40,
		4: 30,
		5: 10,
	} {
		if self[id] != want {
			t.Errorf("span %d: self time %d, want %d", id, self[id], want)
		}
	}
	if by := selfByName(spans); by["root"] != 30 || by["a"] != 30 {
		t.Errorf("self time by name: %v", by)
	}
}

func TestOpenLoopTimesLatencyFromDueTime(t *testing.T) {
	// A server that takes 20 ms per query, asked at 100/s on one
	// connection: the schedule runs 10 ms further ahead of the server with
	// every request. Latency counted from the due time grows with the
	// backlog; latency counted from the send time would stay at 20 ms.
	const service = 20 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"dataset":"d","instance":0,"sum":1}`))
	}))
	defer ts.Close()
	q := &request{class: opSum, dataset: "d", instances: []int{0}}
	lc := newLoadClient(ts.URL, func(int) *request { return q })
	defer lc.close()
	epoch := time.Now()
	const n, rate = 10, 100.0
	t0, _ := runOpenLoop(context.Background(), epoch, lc, rate, n)
	if len(lc.samples) != n {
		t.Fatalf("got %d samples, want %d", len(lc.samples), n)
	}
	for i, s := range lc.samples {
		if !s.ok {
			t.Fatalf("request %d failed: %v", i, lc.records[i].err)
		}
		if want := t0 + int64(float64(i)/rate*1e9); s.due != want {
			t.Errorf("request %d due at %d, want %d", i, s.due, want)
		}
		if s.sent < s.due {
			t.Errorf("request %d sent before it was due", i)
		}
	}
	last := lc.samples[n-1]
	fromDue := time.Duration(last.end - last.due)
	fromSend := time.Duration(last.end - last.sent)
	if wantAtLeast := time.Duration(n)*service - time.Duration(float64(n-1)/rate*1e9)*time.Nanosecond; fromDue < wantAtLeast {
		t.Errorf("last request: latency from due time %v, want at least %v", fromDue, wantAtLeast)
	}
	if fromSend > fromDue/2 {
		t.Errorf("last request: latency from send time %v is not clearly below latency from due time %v", fromSend, fromDue)
	}
}

func TestOracleFailsOnACorruptedAnswer(t *testing.T) {
	f := genQueryFixture(5, "", 2, 1, 1)
	st := newQueryStream(5, f, 0)
	orc := newOracle()
	var records []record
	for j := 0; j < 50; j++ {
		q := st.request(j)
		ans, err := orc.expectedAnswer(f, q)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, record{req: q, out: outcome{ans: ans}})
	}
	var good tally
	newOracle().check(f, records, &good)
	if good.failed != 0 || good.attempted != len(records) {
		t.Fatalf("oracle rejects correct answers: %+v", good)
	}
	// One bit of one estimate.
	for i, rec := range records {
		if rec.req.class == opMaxDominance {
			records[i].out.ans.L = math.Float64frombits(math.Float64bits(rec.out.ans.L) ^ 1)
			break
		}
	}
	var bad tally
	newOracle().check(f, records, &bad)
	if bad.failed != 1 {
		t.Fatalf("oracle counted %d failures for one corrupted answer", bad.failed)
	}
	// A wrong acknowledged sample size of an ingest is caught too.
	ing := newIngestStream(5, genIngestPool(5, 't', 1, false), "t", 0, false)
	q := ing.request(0)
	ref, err := orc.ingestRef(q)
	if err != nil {
		t.Fatal(err)
	}
	var ingest tally
	orc.check(nil, []record{
		{req: q, out: outcome{size: ref.size, pairs: int64(q.npairs)}},
		{req: q, out: outcome{size: ref.size + 1, pairs: int64(q.npairs)}},
	}, &ingest)
	if ingest.failed != 1 {
		t.Fatalf("oracle counted %d failures for one wrong ingest acknowledgement", ingest.failed)
	}
}

func TestParseMetrics(t *testing.T) {
	got := parseMetrics([]byte("# HELP x y\n# TYPE x counter\nsummaryd_store_snapshots_total 3\n" +
		"summaryd_http_requests_total{endpoint=\"/v1/query\",class=\"2xx\"} 41\n\n"))
	if len(got) != 2 || got["summaryd_store_snapshots_total"] != 3 ||
		got[`summaryd_http_requests_total{endpoint="/v1/query",class="2xx"}`] != 41 {
		t.Errorf("parsed %v", got)
	}
}

func TestSpinNoisy(t *testing.T) {
	if spinNoisy(100, 109) || !spinNoisy(100, 112) || !spinNoisy(112, 100) {
		t.Error("spin probes differing by more than a tenth must be flagged, and only those")
	}
}

func TestPerRequestFoldsCycles(t *testing.T) {
	// A writer cycling {one 100 ms ingest, three 1 ms posts}: folded into
	// cycles, every request still counts once, over the cycle's whole
	// duration, and a trailing partial cycle is kept.
	var samples []sample
	at := int64(0)
	for i := 0; i < 10; i++ {
		d := int64(1e6)
		if i%4 == 0 {
			d = 100e6
		}
		samples = append(samples, sample{due: at, sent: at, end: at + d, units: 1000, ok: true})
		at += d
	}
	folded := perRequest(samples, 4)
	if len(folded) != 3 {
		t.Fatalf("got %d cycles, want 3", len(folded))
	}
	total := 0.0
	for i, c := range folded {
		total += c.units
		if i < 2 && (c.units != 4 || c.end-c.sent != 103e6) {
			t.Errorf("cycle %d: %v units over %d ns, want 4 over 103 ms", i, c.units, c.end-c.sent)
		}
	}
	if total != 10 {
		t.Errorf("cycles carry %v requests, want 10", total)
	}
	for _, s := range perRequest(samples, 0) {
		if s.units != 1 {
			t.Errorf("unfolded sample carries %v units, want 1", s.units)
		}
	}
}
