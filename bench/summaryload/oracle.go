package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// answer is the numeric content of a query response; every field is
// compared bit for bit.
type answer struct {
	HT, L, Sum float64
	StdErr     float64
	HasStdErr  bool
	Keys       int // keys_used, or sampled for a quantile
}

func (a answer) equal(b answer) bool {
	bits := func(x answer) [4]uint64 {
		return [4]uint64{math.Float64bits(x.HT), math.Float64bits(x.L), math.Float64bits(x.Sum), math.Float64bits(x.StdErr)}
	}
	return bits(a) == bits(b) && a.HasStdErr == b.HasStdErr && a.Keys == b.Keys
}

// slotKey names one stored summary.
type slotKey struct {
	dataset  string
	instance int
}

// recordLists returns every client's records, preload first.
func (lr *liveRun) recordLists() [][]record {
	var out [][]record
	for _, lc := range lr.everyClient() {
		out = append(out, lc.records)
	}
	return out
}

// liveStateOf is what the registry must hold after the given requests:
// the last acknowledged write per (dataset, instance). A slot is only
// ever written from one list, so per-list order is the server's order.
func liveStateOf(lists ...[]record) map[slotKey]*request {
	state := make(map[slotKey]*request)
	for _, records := range lists {
		for _, rec := range records {
			if rec.err == nil && !rec.req.class.isQuery() {
				state[slotKey{rec.req.dataset, rec.req.instance}] = rec.req
			}
		}
	}
	return state
}

func (lr *liveRun) liveState() map[slotKey]*request { return liveStateOf(lr.recordLists()...) }

// oracle checks every answer of the run against reference computations
// made in this process.
type oracle struct {
	ingests map[ingestKey]ingestRef
	answers map[string]answer
}

// ingestKey names one distinct ingest: a raw instance summarized into one
// (dataset, instance).
type ingestKey struct {
	raw      *pairs
	dataset  string
	instance int
}

type ingestRef struct {
	v2   []byte
	size int
}

func newOracle() *oracle {
	return &oracle{ingests: make(map[ingestKey]ingestRef), answers: make(map[string]answer)}
}

// ingestRef summarizes an ingest's raw pairs in process, once per
// distinct (raw instance, dataset, instance).
func (o *oracle) ingestRef(q *request) (ingestRef, error) {
	key := ingestKey{q.raw, q.dataset, q.instance}
	if ref, ok := o.ingests[key]; ok {
		return ref, nil
	}
	sum := summarize(q.kind, q.salt, q.instance, *q.raw, q.k, q.tau, 0)
	v2, err := encodeSummary(sum, 2)
	if err != nil {
		return ingestRef{}, err
	}
	ref := ingestRef{v2: v2, size: sum.Size()}
	o.ingests[key] = ref
	return ref, nil
}

// expectedV2 is the v2 encoding the server must return for the summary a
// write stored.
func (o *oracle) expectedV2(q *request) ([]byte, error) {
	switch {
	case q.class.isIngest():
		ref, err := o.ingestRef(q)
		return ref.v2, err
	case q.sum != nil:
		return encodeSummary(q.sum, 2)
	default:
		return q.body, nil
	}
}

// queryKey identifies a distinct query.
func queryKey(q *request) string {
	var b strings.Builder
	b.WriteString(opClassNames[q.class])
	b.WriteByte('|')
	b.WriteString(q.dataset)
	for _, i := range q.instances {
		b.WriteByte('|')
		b.WriteString(strconv.Itoa(i))
	}
	b.WriteByte('|')
	b.WriteString(strconv.FormatUint(q.key, 10))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(q.l))
	return b.String()
}

// expectedAnswer computes a query's reference answer, once per distinct
// query.
func (o *oracle) expectedAnswer(f *queryFixture, q *request) (answer, error) {
	key := queryKey(q)
	if a, ok := o.answers[key]; ok {
		return a, nil
	}
	d, ok := f.byName[q.dataset]
	if !ok {
		return answer{}, fmt.Errorf("query names unknown dataset %s", q.dataset)
	}
	sums := make([]summary, len(q.instances))
	for i, inst := range q.instances {
		sums[i] = d.sums[inst]
	}
	a, err := expectedAnswer(q, sums)
	if err == nil {
		o.answers[key] = a
	}
	return a, err
}

// check verifies a list of sent requests: no error, ingest
// acknowledgements naming the reference sample size, query answers (over
// the registry f describes) bit-equal to the reference.
func (o *oracle) check(f *queryFixture, records []record, t *tally) {
	for _, rec := range records {
		t.attempted++
		q := rec.req
		switch {
		case rec.err != nil:
			t.fail("%s %s/%d: %v", opClassNames[q.class], q.dataset, q.instance, rec.err)
		case q.class.isIngest():
			ref, err := o.ingestRef(q)
			if err != nil || rec.out.size != ref.size {
				t.fail("ingest %s/%d: acknowledged size %d, reference %d (%v)", q.dataset, q.instance, rec.out.size, ref.size, err)
			}
		case q.class.isQuery():
			want, err := o.expectedAnswer(f, q)
			if err != nil || !rec.out.ans.equal(want) {
				t.fail("query %s: got %+v, reference %+v (%v)", queryKey(q), rec.out.ans, want, err)
			}
		}
	}
}

// checkRecords verifies everything a run has sent so far.
func (o *oracle) checkRecords(lr *liveRun, t *tally) {
	for _, records := range lr.recordLists() {
		o.check(lr.in.fixture, records, t)
	}
}

// checkStored fetches every live summary as v2 from srv and compares it
// byte for byte with the reference encoding.
func (o *oracle) checkStored(ctx context.Context, srv *serverProc, state map[slotKey]*request, t *tally) {
	for key, q := range state {
		t.attempted++
		want, err := o.expectedV2(q)
		if err != nil {
			t.fail("reference for %s/%d: %v", key.dataset, key.instance, err)
			continue
		}
		got, err := fetchV2(ctx, srv.hc, srv.base, key.dataset, key.instance)
		if err != nil {
			t.fail("%v", err)
		} else if !bytes.Equal(got, want) {
			t.fail("stored %s/%d differs from the reference encoding (%d vs %d bytes)", key.dataset, key.instance, len(got), len(want))
		}
	}
}

// liveBytes is the v2 size of everything the registry holds.
func (o *oracle) liveBytes(state map[slotKey]*request) int64 {
	var total int64
	for _, q := range state {
		if v2, err := o.expectedV2(q); err == nil {
			total += int64(len(v2))
		}
	}
	return total
}

// recoverAndCheck restarts summaryd over the data directory lr's server
// was killed on, checks that every summary lr's clients had acknowledged
// is back, byte for byte, checks every answer lr's clients received, and
// returns the restart's time.
func (o *oracle) recoverAndCheck(ctx context.Context, lr *liveRun, t *tally) (float64, error) {
	state := lr.liveState()
	took, srv, err := recoverOnce(lr.cfg, lr.dir, len(state), t)
	if err != nil {
		return 0, err
	}
	defer srv.kill()
	o.checkRecords(lr, t)
	o.checkStored(ctx, srv, state, t)
	return took, nil
}
