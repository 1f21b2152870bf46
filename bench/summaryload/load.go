package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/pkg/client"
)

// outcome is what one request returned, kept for the oracle.
type outcome struct {
	ans   answer // queries
	size  int    // writes: entries in the stored summary
	pairs int64  // ingest: pairs the server consumed
}

// record pairs a request with its outcome.
type record struct {
	req *request
	out outcome
	err error
}

// loadClient is one client goroutine's state: its own connection, its
// deterministic request stream and where it is in it, and everything it
// has sent so far.
type loadClient struct {
	api     *client.Client
	hc      *http.Client
	next    func(j int) *request
	j       int
	records []record
	samples []sample // requests of the timed section only
}

// newLoadClient opens a client limited to one connection, so that "2
// clients" is also "2 connections".
func newLoadClient(base string, next func(j int) *request) *loadClient {
	hc := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	return &loadClient{api: client.New(base, hc), hc: hc, next: next}
}

func (lc *loadClient) close() { lc.hc.CloseIdleConnections() }

// do sends one request through pkg/client and checks the parts of the
// acknowledgement that need no reference computation.
func (lc *loadClient) do(ctx context.Context, q *request) (outcome, error) {
	var out outcome
	switch q.class {
	case opIngestNDJSON, opIngestCSV:
		opts := client.IngestOptions{
			Dataset: q.dataset, Instance: q.instance, Kind: q.kind, Format: "ndjson",
			Salt: q.salt, SaltSet: true, Tau: q.tau, K: q.k,
		}
		if q.class == opIngestCSV {
			opts.Format = "csv"
		}
		res, err := lc.api.Ingest(ctx, opts, bytes.NewReader(q.body))
		if err != nil {
			return out, err
		}
		out.size, out.pairs = res.Size, res.Pairs
		if res.Pairs != int64(q.npairs) || res.Dataset != q.dataset || res.Instance != q.instance || res.Kind != q.kind {
			return out, fmt.Errorf("ingest ack %+v does not match request (%d pairs into %s/%d)", res, q.npairs, q.dataset, q.instance)
		}
	case opPost:
		res, err := lc.api.PostSummary(ctx, q.dataset, q.body)
		if err != nil {
			return out, err
		}
		out.size = res.Size
		if res.Size != q.wantSize || res.Instance != q.instance || res.Dataset != q.dataset {
			return out, fmt.Errorf("post ack %+v does not match request (size %d into %s/%d)", res, q.wantSize, q.dataset, q.instance)
		}
	case opMaxDominance:
		res, err := lc.api.MaxDominance(ctx, q.dataset, q.instances[0], q.instances[1])
		if err != nil {
			return out, err
		}
		out.ans = answer{HT: res.HT, L: res.L, Keys: res.KeysUsed}
	case opDistinct, opBKDistinct:
		res, err := lc.api.Distinct(ctx, q.dataset, q.instances...)
		if err != nil {
			return out, err
		}
		out.ans = answer{HT: res.HT, L: res.L, Keys: res.KeysUsed}
		if res.Accuracy != nil {
			out.ans.StdErr, out.ans.HasStdErr = res.Accuracy.StdErr, true
		}
	case opSum:
		res, err := lc.api.Sum(ctx, q.dataset, q.instances[0])
		if err != nil {
			return out, err
		}
		out.ans = answer{Sum: res.Sum}
		if res.Accuracy != nil {
			out.ans.StdErr, out.ans.HasStdErr = res.Accuracy.StdErr, true
		}
	case opQuantile:
		res, err := lc.api.Quantile(ctx, q.dataset, q.key, q.l, q.instances...)
		if err != nil {
			return out, err
		}
		out.ans = answer{HT: res.HT, Keys: res.Sampled}
	}
	return out, nil
}

// units is the work one acknowledged request stands for.
func (q *request) units() float64 {
	if q.class.isIngest() {
		return float64(q.npairs)
	}
	return 1
}

// issue sends the client's next request. due is when it was due on the
// run clock (negative: now, the closed-loop case); timed says whether it
// belongs to the timed section.
func (lc *loadClient) issue(ctx context.Context, epoch time.Time, due int64, timed bool) {
	q := lc.next(lc.j)
	lc.j++
	sent := time.Since(epoch).Nanoseconds()
	if due < 0 {
		due = sent
	}
	out, err := lc.do(ctx, q)
	end := time.Since(epoch).Nanoseconds()
	lc.records = append(lc.records, record{req: q, out: out, err: err})
	if timed {
		lc.samples = append(lc.samples, sample{
			class: q.class, due: due, sent: sent, end: end, units: q.units(), ok: err == nil,
		})
	}
}

// each runs fn once per client, in parallel, and waits.
func each(clients []*loadClient, fn func(i int, lc *loadClient)) {
	var wg sync.WaitGroup
	for i, lc := range clients {
		wg.Add(1)
		go func(i int, lc *loadClient) {
			defer wg.Done()
			fn(i, lc)
		}(i, lc)
	}
	wg.Wait()
}

// runUntimed has every client send n more requests of its stream, outside
// the timed section (warm-up before it, state-fixing tail after it).
func runUntimed(ctx context.Context, epoch time.Time, clients []*loadClient, n int) {
	each(clients, func(_ int, lc *loadClient) {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			lc.issue(ctx, epoch, -1, false)
		}
	})
}

// runClosedLoop is the closed-loop timed section: every client sends its
// requests back to back until seconds have passed. It returns the window
// [t0,t1) in which every client was busy; a request still in flight at t1
// is credited for the part of it inside the window and has no latency.
func runClosedLoop(ctx context.Context, epoch time.Time, clients []*loadClient, seconds float64) (t0, t1 int64) {
	t0 = time.Since(epoch).Nanoseconds()
	t1 = t0 + int64(seconds*1e9)
	each(clients, func(_ int, lc *loadClient) {
		for ctx.Err() == nil && time.Since(epoch).Nanoseconds() < t1 {
			lc.issue(ctx, epoch, -1, true)
		}
	})
	return t0, t1
}

// runOpenLoop sends count requests on a fixed schedule of rate per
// second, each due at t0 + i/rate whether or not earlier ones have been
// answered; a request that cannot be sent on time (the connection is
// still busy) is sent as soon as possible and its latency still counts
// from its due time.
func runOpenLoop(ctx context.Context, epoch time.Time, lc *loadClient, rate float64, count int) (t0, t1 int64) {
	t0 = time.Since(epoch).Nanoseconds()
	for i := 0; i < count && ctx.Err() == nil; i++ {
		due := t0 + int64(float64(i)/rate*1e9)
		if wait := due - time.Since(epoch).Nanoseconds(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		lc.issue(ctx, epoch, due, true)
	}
	return t0, time.Since(epoch).Nanoseconds()
}

// runUntil sends requests back to back until stop is closed.
func runUntil(ctx context.Context, epoch time.Time, lc *loadClient, stop <-chan struct{}) {
	for ctx.Err() == nil {
		select {
		case <-stop:
			return
		default:
		}
		lc.issue(ctx, epoch, -1, true)
	}
}

// allSamples concatenates the clients' timed samples.
func allSamples(clients []*loadClient) []sample {
	var out []sample
	for _, lc := range clients {
		out = append(out, lc.samples...)
	}
	return out
}
