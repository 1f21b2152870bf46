package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strconv"
)

// Everything the server sees is derived from -seed through this file:
// the same seed gives the same bytes in the same order, a different seed
// different ones. The generator is a plain splitmix64 stream so the
// sequence does not depend on the Go release's math/rand.

type rng struct{ s uint64 }

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newRNG derives an independent stream from the run seed and a path of
// stream labels (workload, purpose, index).
func newRNG(seed uint64, path ...uint64) *rng {
	s := mix64(seed)
	for _, p := range path {
		s = mix64(s ^ mix64(p))
	}
	return &rng{s: s}
}

func (r *rng) u64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	x := r.s
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// float returns a uniform value in [0,1).
func (r *rng) float() float64 { return float64(r.u64()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.u64() % uint64(n)) }

// paretoAlpha is the tail index of the generated values: heavy enough
// that weighted sampling matters (a few keys carry much of the total), as
// in the paper's IP-flow and query-log workloads.
const paretoAlpha = 1.2

// round2 rounds to two decimals, so the decimal text the bodies carry
// parses back to the identical float64.
func round2(x float64) float64 { return math.Round(x*100) / 100 }

// pareto draws a Pareto(alpha, x_min=1) value rounded to two decimals.
func (r *rng) pareto() float64 {
	u := 1 - r.float() // (0,1]
	return round2(math.Pow(u, -1/paretoAlpha))
}

// pairs is one instance of raw data: distinct keys with positive values.
type pairs struct {
	keys []uint64
	vals []float64
}

const keyBits = 40

// genPairs draws n pairs with distinct keys. Keys are an affine bijection
// of the index on 2^40 (odd multiplier), so they are distinct by
// construction yet unordered; domain tags the high bits so two instances
// drawn with different domains can never share a key by accident.
func genPairs(r *rng, n int, domain uint64) pairs {
	a, b := r.u64()|1, r.u64()
	p := pairs{keys: make([]uint64, n), vals: make([]float64, n)}
	for i := range p.keys {
		p.keys[i] = domain<<keyBits | (a*uint64(i)+b)&(1<<keyBits-1)
		p.vals[i] = r.pareto()
	}
	return p
}

// sharedShare is the fraction of keys a second instance of a dataset
// keeps from the first.
const sharedShare = 0.7

// genSecondInstance derives the second instance of a dataset: about
// sharedShare of base's keys reappear with a correlated value (base value
// times a factor in [0.5,1.5)), the rest are replaced by fresh keys.
func genSecondInstance(r *rng, base pairs) pairs {
	fresh := genPairs(r, len(base.keys), 1)
	out := pairs{keys: make([]uint64, len(base.keys)), vals: make([]float64, len(base.keys))}
	for i := range base.keys {
		if r.float() < sharedShare {
			out.keys[i] = base.keys[i]
			out.vals[i] = math.Max(0.01, round2(base.vals[i]*(0.5+r.float())))
		} else {
			out.keys[i], out.vals[i] = fresh.keys[i], fresh.vals[i]
		}
	}
	return out
}

// renderNDJSON writes one {"key":K,"value":V} object per line.
func renderNDJSON(p pairs) []byte {
	out := make([]byte, 0, len(p.keys)*36)
	for i, k := range p.keys {
		out = append(out, `{"key":`...)
		out = strconv.AppendUint(out, k, 10)
		out = append(out, `,"value":`...)
		out = strconv.AppendFloat(out, p.vals[i], 'f', 2, 64)
		out = append(out, "}\n"...)
	}
	return out
}

// renderCSV writes one key,value line per pair.
func renderCSV(p pairs) []byte {
	out := make([]byte, 0, len(p.keys)*22)
	for i, k := range p.keys {
		out = strconv.AppendUint(out, k, 10)
		out = append(out, ',')
		out = strconv.AppendFloat(out, p.vals[i], 'f', 2, 64)
		out = append(out, '\n')
	}
	return out
}

// opClass names the kind of a request for per-kind splits.
type opClass uint8

const (
	opIngestNDJSON opClass = iota
	opIngestCSV
	opPost
	opMaxDominance
	opDistinct
	opSum
	opQuantile
	opBKDistinct
	numOpClasses
)

var opClassNames = [numOpClasses]string{
	"ingest_ndjson", "ingest_csv", "post",
	"maxdominance", "distinct", "sum", "quantile", "bkdistinct",
}

func (c opClass) isQuery() bool  { return c >= opMaxDominance }
func (c opClass) isIngest() bool { return c <= opIngestCSV }

// request is one generated HTTP request plus what the oracle needs to
// check its answer.
type request struct {
	class   opClass
	dataset string
	// Writes.
	instance int
	body     []byte
	kind     string  // ingest: "pps" or "bottomk"
	salt     uint64  // ingest
	tau      float64 // ingest pps
	k        int     // ingest bottomk
	npairs   int     // ingest: pairs in body
	raw      *pairs  // ingest: the raw instance body was rendered from
	wantSize int     // post: entries in the posted summary
	sum      summary // post of a fixture summary: what was encoded into body
	// Queries.
	instances []int
	key       uint64
	l         int
	view      bool // answered from a zero-copy v2 view (else hydrated v1)
	large     bool // over the 8000-entry summaries
}

// signature is a stable text form of everything the server will see, used
// to hash request order in tests and in the run's record.
func (q *request) signature() string {
	h := sha256.Sum256(q.body)
	s := opClassNames[q.class] + "|" + q.dataset + "|" + strconv.Itoa(q.instance) + "|" +
		q.kind + "|" + strconv.FormatUint(q.salt, 10) + "|" +
		strconv.FormatFloat(q.tau, 'g', -1, 64) + "|" + strconv.Itoa(q.k) + "|" +
		strconv.FormatUint(q.key, 10) + "|" + strconv.Itoa(q.l) + "|"
	for _, i := range q.instances {
		s += strconv.Itoa(i) + ","
	}
	return s + "|" + hex.EncodeToString(h[:8])
}

// streamHash folds the signatures of the first n requests of a stream.
func streamHash(next func(j int) *request, n int) string {
	h := sha256.New()
	for j := 0; j < n; j++ {
		h.Write([]byte(next(j).signature()))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
