package main

import (
	"fmt"
	"strconv"
)

// Sizes of the generated inputs. They are the paper's regime: samples of
// about a thousand keys out of instances two orders of magnitude larger.
const (
	ingestPairs     = 100_000 // pairs per raw ingest body
	ingestPoolSize  = 8       // raw instances the ingest bodies cycle through
	ingestK         = 1024    // bottom-k size and PPS expected size of an ingest
	ingestInstances = 32      // instance slots per ingest dataset

	postSourcePairs  = 10_000 // raw instance behind each posted summary
	postInstances    = 16     // instances per posted dataset
	postSmallK       = 500    // three quarters of the posted summaries (≈8 KB as v2)
	postLargeK       = 2000   // one quarter (≈32 KB)
	postDatasets     = 64     // summary_post: sp00..sp63
	mixedPostDataset = 8      // mixed_rw writer: w00..w07

	matrixKeys     = 200_000 // keys per instance of the queried matrix
	mdSalts        = 64      // md00..md63: the same matrix under 64 salts
	mdLargeSalts   = 4       // mdL0..mdL3
	mdSize         = 1000    // expected PPS sample size of md*
	mdLargeSize    = 8000    // ... of mdL*
	dcSalts        = 64      // dc00..dc63
	dcSetMembers   = 20_000  // members per set; three sets overlap pairwise by half
	dcP            = 0.05    // set sampling probability: ≈1000 sampled members
	bkDatasets     = 8       // bk00..bk07
	bkK            = 1000    // bottom-k size of bk*
	quantileKeys   = 16      // heavy keys the quantile queries ask about
	streamLabelGen = 0x67656e
)

// ingestSource is one raw instance rendered in both body formats.
type ingestSource struct {
	p      pairs
	ndjson []byte
	csv    []byte
	tau    float64 // PPS threshold for an expected sample of ingestK keys
}

func genIngestPool(seed uint64, label uint64, n int, withCSV bool) []ingestSource {
	pool := make([]ingestSource, n)
	for i := range pool {
		p := genPairs(newRNG(seed, streamLabelGen, label, uint64(i)), ingestPairs, 0)
		pool[i] = ingestSource{p: p, ndjson: renderNDJSON(p), tau: tauForExpectedSize(p.vals, ingestK)}
		if withCSV {
			pool[i].csv = renderCSV(p)
		}
	}
	return pool
}

// ingestStream is one client's deterministic sequence of raw ingests:
// request j is ndjson when j is even else CSV, bottom-k when ⌊j/2⌋ is even
// else PPS, goes to instance ⌊j/4⌋ mod 32 of that kind's dataset, and
// carries raw instance (j + 3·client) mod pool.
type ingestStream struct {
	pool    []ingestSource
	client  int
	prefix  string
	seed    uint64
	csvToo  bool
	reqs    map[int]*request
	perKind [2]string
}

func newIngestStream(seed uint64, pool []ingestSource, prefix string, client int, csvToo bool) *ingestStream {
	s := &ingestStream{pool: pool, client: client, prefix: prefix, seed: seed, csvToo: csvToo, reqs: make(map[int]*request)}
	s.perKind = [2]string{
		fmt.Sprintf("%s_c%d_bottomk", prefix, client),
		fmt.Sprintf("%s_c%d_pps", prefix, client),
	}
	return s
}

func (s *ingestStream) request(j int) *request {
	if q, ok := s.reqs[j]; ok {
		return q
	}
	src := (j + 3*s.client) % len(s.pool)
	kindIdx := (j >> 1) & 1
	q := &request{
		class:    opIngestNDJSON,
		dataset:  s.perKind[kindIdx],
		instance: (j >> 2) % ingestInstances,
		body:     s.pool[src].ndjson,
		kind:     "bottomk",
		k:        ingestK,
		npairs:   ingestPairs,
		raw:      &s.pool[src].p,
		// One salt per dataset: the first ingest creates the dataset with
		// it and every later one must name the same.
		salt: mix64(s.seed ^ uint64(s.client)<<8 ^ uint64(kindIdx)),
	}
	if s.csvToo && j&1 == 1 {
		q.class, q.body = opIngestCSV, s.pool[src].csv
	}
	if kindIdx == 1 {
		q.kind, q.k, q.tau = "pps", 0, s.pool[src].tau
	}
	s.reqs[j] = q
	return q
}

// postSlot is one (dataset, instance) a posted summary lands in, with the
// pre-encoded v2 body that is posted there every time.
type postSlot struct {
	dataset  string
	instance int
	body     []byte
	size     int
}

// genPostSlots builds datasets×postInstances pre-encoded v2 summaries:
// even datasets bottom-k, odd PPS; every fourth instance is the large
// size. One raw instance per dataset is summarized under 16 instance
// numbers — different hash seeds, so 16 different samples.
func genPostSlots(seed uint64, prefix string, datasets int) ([]postSlot, error) {
	slots := make([]postSlot, 0, datasets*postInstances)
	for d := 0; d < datasets; d++ {
		raw := genPairs(newRNG(seed, streamLabelGen, 'p', uint64(d)), postSourcePairs, 0)
		salt := mix64(seed ^ 0x706f7374 ^ uint64(d)<<16)
		name := fmt.Sprintf("%s%02d", prefix, d)
		tauSmall, tauLarge := 0.0, 0.0
		if d%2 == 1 {
			tauSmall = tauForExpectedSize(raw.vals, postSmallK)
			tauLarge = tauForExpectedSize(raw.vals, postLargeK)
		}
		for inst := 0; inst < postInstances; inst++ {
			k, tau := postSmallK, tauSmall
			if inst%4 == 3 {
				k, tau = postLargeK, tauLarge
			}
			var sum summary
			if d%2 == 0 {
				sum = summarize("bottomk", salt, inst, raw, k, 0, 0)
			} else {
				sum = summarize("pps", salt, inst, raw, 0, tau, 0)
			}
			body, err := encodeSummary(sum, 2)
			if err != nil {
				return nil, err
			}
			slots = append(slots, postSlot{dataset: name, instance: inst, body: body, size: sum.Size()})
		}
	}
	return slots, nil
}

// postStream is one client's sequence over its share of the slots:
// client c of n posts slots c, c+n, c+2n, … and wraps around.
type postStream struct {
	slots []postSlot
	reqs  []*request
}

func newPostStream(slots []postSlot, client, clients int) *postStream {
	s := &postStream{}
	for i := client; i < len(slots); i += clients {
		sl := slots[i]
		s.slots = append(s.slots, sl)
		s.reqs = append(s.reqs, &request{
			class: opPost, dataset: sl.dataset, instance: sl.instance, body: sl.body, wantSize: sl.size,
		})
	}
	return s
}

func (s *postStream) request(j int) *request { return s.reqs[j%len(s.reqs)] }

// fixtureDataset is one preloaded dataset of the query registry.
type fixtureDataset struct {
	name  string
	sums  []summary
	wire  int  // 2: posted as v2, served as a zero-copy view; 1: posted as JSON, hydrated
	large bool // mdL*
}

// ask builds a query of the given kind over instances of d.
func (d *fixtureDataset) ask(class opClass, instances ...int) *request {
	return &request{class: class, dataset: d.name, instances: instances, view: d.wire == 2, large: d.large}
}

// queryFixture is the registry the query workloads read: the datasets to
// preload, the ground truth their estimates target, and the query mix.
type queryFixture struct {
	md, mdL, dc, bk []fixtureDataset
	byName          map[string]*fixtureDataset
	heavyKeys       []uint64
	truthMaxDom     float64 // Σ_h max(v1(h), v2(h)) of the matrix
	truthDistinct   float64 // |A ∪ B ∪ C|
	truthSum        [2]float64
}

func (f *queryFixture) all() []*fixtureDataset {
	var out []*fixtureDataset
	for _, group := range [][]fixtureDataset{f.md, f.mdL, f.dc, f.bk} {
		for i := range group {
			out = append(out, &group[i])
		}
	}
	return out
}

// wireFor alternates representations: even-numbered datasets are posted
// as v2 (the server keeps the bytes and queries them in place), odd ones
// as v1 JSON (decoded into maps).
func wireFor(i int) int {
	if i%2 == 0 {
		return 2
	}
	return 1
}

// genQueryFixture builds the query registry. salts scales the number of
// salted copies of md* and dc* (the full benchmark uses mdSalts/dcSalts;
// the probe set of a traced run a handful).
func genQueryFixture(seed uint64, prefix string, salts, largeSalts, bks int) *queryFixture {
	f := &queryFixture{byName: make(map[string]*fixtureDataset)}
	r := newRNG(seed, streamLabelGen, 'q')
	inst0 := genPairs(r, matrixKeys, 0)
	inst1 := genSecondInstance(r, inst0)
	matrix := [2]pairs{inst0, inst1}

	// Ground truth over the union of keys.
	maxOf := make(map[uint64]float64, 2*matrixKeys)
	for i, p := range matrix {
		for j, k := range p.keys {
			f.truthSum[i] += p.vals[j]
			if p.vals[j] > maxOf[k] {
				maxOf[k] = p.vals[j]
			}
		}
	}
	for _, p := range matrix { // summed in generation order, not map order
		for _, k := range p.keys {
			if v, ok := maxOf[k]; ok {
				f.truthMaxDom += v
				delete(maxOf, k)
			}
		}
	}
	// The heaviest keys of instance 0: the ones a quantile query is likely
	// to find sampled.
	type kv struct {
		k uint64
		v float64
	}
	heavy := make([]kv, 0, quantileKeys)
	for j, k := range inst0.keys {
		v := inst0.vals[j]
		if len(heavy) < quantileKeys {
			heavy = append(heavy, kv{k, v})
			continue
		}
		lo := 0
		for i := range heavy {
			if heavy[i].v < heavy[lo].v {
				lo = i
			}
		}
		if v > heavy[lo].v {
			heavy[lo] = kv{k, v}
		}
	}
	for _, h := range heavy {
		f.heavyKeys = append(f.heavyKeys, h.k)
	}

	mdGroup := func(name string, n int, size float64, large bool) []fixtureDataset {
		taus := [2]float64{tauForExpectedSize(inst0.vals, size), tauForExpectedSize(inst1.vals, size)}
		out := make([]fixtureDataset, n)
		for i := range out {
			salt := mix64(seed ^ uint64(len(name))<<32 ^ uint64(i)<<8 ^ 0x6d64)
			out[i] = fixtureDataset{name: name + strconv.Itoa(i), wire: wireFor(i), large: large}
			if n > 9 {
				out[i].name = fmt.Sprintf("%s%02d", name, i)
			}
			for inst, p := range matrix {
				out[i].sums = append(out[i].sums, summarize("pps", salt, inst, p, 0, taus[inst], 0))
			}
		}
		return out
	}
	f.md = mdGroup(prefix+"md", salts, mdSize, false)
	f.mdL = mdGroup(prefix+"mdL", largeSalts, mdLargeSize, true)

	// Three sets over a 2·dcSetMembers universe, each overlapping the next
	// by half: A=[0,n), B=[n/2,3n/2), C=[n,2n).
	universe := genPairs(newRNG(seed, streamLabelGen, 'd'), 2*dcSetMembers, 2)
	f.truthDistinct = float64(2 * dcSetMembers)
	f.dc = make([]fixtureDataset, salts)
	for i := range f.dc {
		salt := mix64(seed ^ uint64(i)<<8 ^ 0x6463)
		f.dc[i] = fixtureDataset{name: fmt.Sprintf("%sdc%02d", prefix, i), wire: wireFor(i)}
		for inst := 0; inst < 3; inst++ {
			lo := inst * dcSetMembers / 2
			members := pairs{keys: universe.keys[lo : lo+dcSetMembers]}
			f.dc[i].sums = append(f.dc[i].sums, summarize("set", salt, inst, members, 0, 0, dcP))
		}
	}

	f.bk = make([]fixtureDataset, bks)
	for i := range f.bk {
		salt := mix64(seed ^ uint64(i)<<8 ^ 0x626b)
		f.bk[i] = fixtureDataset{name: fmt.Sprintf("%sbk%02d", prefix, i), wire: wireFor(i)}
		f.bk[i].sums = []summary{summarize("bottomk", salt, 0, inst0, bkK, 0, 0)}
	}
	for _, d := range f.all() {
		f.byName[d.name] = d
	}
	return f
}

// query draws the next query of the mix: 40 % max-dominance (one fifth of
// those over the large summaries), 25 % three-set distinct, 15 % sum,
// 10 % quantile, 10 % single-summary bottom-k distinct.
func (f *queryFixture) query(r *rng) *request {
	pick := func(group []fixtureDataset) *fixtureDataset { return &group[r.intn(len(group))] }
	u := r.float()
	switch {
	case u < 0.40:
		d := pick(f.md)
		if r.intn(5) == 0 {
			d = pick(f.mdL)
		}
		return d.ask(opMaxDominance, 0, 1)
	case u < 0.65:
		return pick(f.dc).ask(opDistinct, 0, 1, 2)
	case u < 0.80:
		return pick(f.md).ask(opSum, r.intn(2))
	case u < 0.90:
		q := pick(f.md).ask(opQuantile, 0, 1)
		q.key, q.l = f.heavyKeys[r.intn(len(f.heavyKeys))], 1+r.intn(2)
		return q
	default:
		return pick(f.bk).ask(opBKDistinct, 0)
	}
}

// queryStream is one client's deterministic query sequence.
type queryStream struct {
	f    *queryFixture
	r    *rng
	reqs []*request
}

func newQueryStream(seed uint64, f *queryFixture, client int) *queryStream {
	return &queryStream{f: f, r: newRNG(seed, 'Q', uint64(client))}
}

func (s *queryStream) request(j int) *request {
	for len(s.reqs) <= j {
		s.reqs = append(s.reqs, s.f.query(s.r))
	}
	return s.reqs[j]
}
