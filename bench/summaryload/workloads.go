package main

// Shape of the load. Two clients because the sandbox has two cores: more
// would only queue on the client side.
const (
	loadClients = 2

	ingestWarmOps = 1
	postWarmOps   = 256
	queryWarmOps  = 200

	// mixed_rw: one closed-loop writer cycling {1 ingest, 200 posts} beside
	// one open-loop reader at a fixed rate, about a quarter of the
	// closed-loop query capacity measured when the benchmark was written.
	mixedPostsPerCycle = 200
	mixedReaderRate    = 300.0

	// snapshotEvery is summaryd's default -snapshot-every.
	snapshotEvery = 4096

	// Posts of the recovery scenario: two and a half snapshot intervals, so
	// recovery reads a two-file snapshot chain and replays half an interval
	// of WAL.
	scenarioWrites = 2*snapshotEvery + snapshotEvery/2
)

// inputs is everything a workload sends, generated from the seed.
type inputs struct {
	preload  []*request             // sent once, in order, before the timed section (part of set-up)
	streams  []func(j int) *request // one per closed-loop client
	reader   func(j int) *request   // mixed_rw: the open-loop reader's stream
	fixture  *queryFixture          // the registry queries are checked against
	warmOps  int                    // untimed requests per closed-loop client before timing starts
	primary  func(c opClass) bool   // the requests whose throughput is the workload's headline
	latency  func(c opClass) bool   // the requests whose latency is (nil: the same ones)
	perPair  bool                   // throughput counts pairs (ingest) instead of requests
	cycleOps int                    // requests per cycle of a cycling writer (see perRequest)
	counts   map[string]int         // generated sizes, for the run record
}

// workloadSpec names one workload and why it exists.
type workloadSpec struct {
	name  string
	why   string
	build func(seed uint64) (*inputs, error)
}

var workloads = []workloadSpec{
	{
		name:  "ingest_raw",
		why:   "raw 100k-pair ndjson/CSV bodies: scan, sampler, merge and registry do the work, the query side none",
		build: buildIngestRaw,
	},
	{
		name:  "summary_post",
		why:   "pre-encoded v2 summaries: codec, registry, WAL and snapshots do the work, scan and samplers none",
		build: buildSummaryPost,
	},
	{
		name:  "query_mixed",
		why:   "five query kinds over preloaded view and hydrated summaries: the read side does the work, the write side none",
		build: buildQueryMixed,
	},
	{
		name:  "mixed_rw",
		why:   "a closed-loop writer beside an open-loop 300/s reader: registry lock, WAL and GC are shared by reads and writes",
		build: buildMixedRW,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func isIngest(c opClass) bool { return c.isIngest() }
func isPost(c opClass) bool   { return c == opPost }
func isQuery(c opClass) bool  { return c.isQuery() }
func isWrite(c opClass) bool  { return !c.isQuery() }

func buildIngestRaw(seed uint64) (*inputs, error) {
	pool := genIngestPool(seed, 'i', ingestPoolSize, true)
	// Latency is the ndjson requests' alone: CSV bodies take a quarter of
	// the time, and the median of a half-and-half mixture of the two would
	// sit in the empty gap between them.
	in := &inputs{warmOps: ingestWarmOps, primary: isIngest, perPair: true,
		latency: func(c opClass) bool { return c == opIngestNDJSON }, counts: map[string]int{"pairs_per_body": ingestPairs, "pool": ingestPoolSize}}
	for c := 0; c < loadClients; c++ {
		st := newIngestStream(seed, pool, "ing", c, true)
		in.streams = append(in.streams, st.request)
	}
	return in, nil
}

func buildSummaryPost(seed uint64) (*inputs, error) {
	slots, err := genPostSlots(seed, "sp", postDatasets)
	if err != nil {
		return nil, err
	}
	in := &inputs{warmOps: postWarmOps, primary: isPost,
		counts: map[string]int{"slots": len(slots)}}
	for c := 0; c < loadClients; c++ {
		st := newPostStream(slots, c, loadClients)
		in.streams = append(in.streams, st.request)
	}
	return in, nil
}

// fixturePreload turns the query registry into the posts that load it:
// even-numbered datasets as v2 bytes, odd ones as v1 JSON.
func fixturePreload(f *queryFixture) ([]*request, error) {
	var out []*request
	for _, d := range f.all() {
		for _, s := range d.sums {
			body, err := encodeSummary(s, d.wire)
			if err != nil {
				return nil, err
			}
			out = append(out, &request{
				class: opPost, dataset: d.name, instance: s.InstanceID(), body: body, wantSize: s.Size(), sum: s,
			})
		}
	}
	return out, nil
}

func buildQueryMixed(seed uint64) (*inputs, error) {
	f := genQueryFixture(seed, "", mdSalts, mdLargeSalts, bkDatasets)
	pre, err := fixturePreload(f)
	if err != nil {
		return nil, err
	}
	in := &inputs{preload: pre, fixture: f, warmOps: queryWarmOps, primary: isQuery, counts: map[string]int{"preloaded_summaries": len(pre)}}
	for c := 0; c < loadClients; c++ {
		st := newQueryStream(seed, f, c)
		in.streams = append(in.streams, st.request)
	}
	return in, nil
}

func buildMixedRW(seed uint64) (*inputs, error) {
	f := genQueryFixture(seed, "", mdSalts, mdLargeSalts, bkDatasets)
	pre, err := fixturePreload(f)
	if err != nil {
		return nil, err
	}
	slots, err := genPostSlots(seed, "w", mixedPostDataset)
	if err != nil {
		return nil, err
	}
	posts := newPostStream(slots, 0, 1)
	ingests := newIngestStream(seed, genIngestPool(seed, 'w', 2, false), "w_ing", 0, false)
	// The writer's cycle: request 0 of every 201 is an ingest, the other
	// 200 are posts.
	const cycle = 1 + mixedPostsPerCycle
	writer := func(j int) *request {
		if j%cycle == 0 {
			return ingests.request(j / cycle)
		}
		return posts.request(j/cycle*mixedPostsPerCycle + j%cycle - 1)
	}
	reader := newQueryStream(seed, f, 0)
	return &inputs{
		preload: pre, fixture: f, streams: []func(int) *request{writer}, reader: reader.request,
		warmOps: cycle, cycleOps: cycle, primary: isWrite, latency: isQuery,
		counts: map[string]int{"preloaded_summaries": len(pre), "writer_slots": len(slots)},
	}, nil
}
