package main

import (
	"context"
	"time"
)

// The probe set is a fixed subsample of the generators' requests — a few
// of every kind — that a traced run sends three ways: to the untraced
// server (client.* metrics), to the traced server (whose own spans are
// then scraped), and in process through each layer's public functions
// (the layer pass). It is the same for every workload, so every workload
// reports every per-layer metric.
const (
	probeSalts       = 4  // p_md00..03 and p_dc00..03
	probeLargeSalts  = 2  // p_mdL0..1
	probeBKs         = 2  // p_bk00..01
	probePostSets    = 8  // p_sp00..07 × 16 instances = 128 posts
	probeIngests     = 8  // 4 ndjson + 4 CSV, bottom-k and PPS alternating
	probeQueryRounds = 40 // passes a live server gets over the 20 distinct probe queries
	probeWarmQueries = 20 // untimed queries before them
)

type probeSet struct {
	fixture *queryFixture
	preload []*request // loads the fixture
	ingests []*request
	posts   []*request
	queries []*request // the distinct queries; a live pass sends probeQueryRounds passes over them
}

func genProbeSet(seed uint64) (*probeSet, error) {
	p := &probeSet{fixture: genQueryFixture(seed^0x70726f6265, "p_", probeSalts, probeLargeSalts, probeBKs)}
	var err error
	if p.preload, err = fixturePreload(p.fixture); err != nil {
		return nil, err
	}
	st := newIngestStream(seed, genIngestPool(seed, 'P', 2, true), "p_ing", 0, true)
	for j := 0; j < probeIngests; j++ {
		p.ingests = append(p.ingests, st.request(j))
	}
	slots, err := genPostSlots(seed, "p_sp", probePostSets)
	if err != nil {
		return nil, err
	}
	p.posts = newPostStream(slots, 0, 1).reqs

	f := p.fixture
	for _, group := range [][]fixtureDataset{f.md, f.mdL} {
		for i := range group {
			p.queries = append(p.queries, group[i].ask(opMaxDominance, 0, 1))
		}
	}
	for i := range f.dc {
		p.queries = append(p.queries, f.dc[i].ask(opDistinct, 0, 1, 2))
	}
	for i := range f.md {
		quantile := f.md[i].ask(opQuantile, 0, 1)
		quantile.key, quantile.l = f.heavyKeys[i%len(f.heavyKeys)], 1+i%2
		p.queries = append(p.queries, f.md[i].ask(opSum, i%2), quantile)
	}
	for i := range f.bk {
		p.queries = append(p.queries, f.bk[i].ask(opBKDistinct, 0))
	}
	return p, nil
}

// probeResult is what sending the probe set to a live server measured.
type probeResult struct {
	records []record // everything sent, fixture preload and warm-up included
	timed   []record // the probes proper, parallel to samples
	samples []sample
}

// sendProbes loads the probe fixture into the server, then sends the
// probe ingests, posts and queries from one closed-loop client.
func sendProbes(ctx context.Context, base string, p *probeSet) probeResult {
	seq := append([]*request(nil), p.preload...)
	seq = append(seq, p.queries[:probeWarmQueries]...)
	timedFrom := len(seq)
	seq = append(seq, p.ingests...)
	seq = append(seq, p.posts...)
	for r := 0; r < probeQueryRounds; r++ {
		seq = append(seq, p.queries...)
	}
	lc := newLoadClient(base, func(j int) *request { return seq[j] })
	defer lc.close()
	epoch := time.Now()
	for j := 0; j < len(seq) && ctx.Err() == nil; j++ {
		lc.issue(ctx, epoch, -1, j >= timedFrom)
	}
	return probeResult{records: lc.records, timed: lc.records[min(timedFrom, len(lc.records)):], samples: lc.samples}
}

// p50Of is the median latency in ms of the probes keep accepts.
func (r probeResult) p50Of(keep func(q *request) bool) float64 {
	var ms []float64
	for i, s := range r.samples {
		if s.ok && keep(r.timed[i].req) {
			ms = append(ms, s.latencyMS())
		}
	}
	return median(ms)
}
