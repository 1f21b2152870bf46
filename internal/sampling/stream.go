package sampling

import (
	"math"

	"repro/internal/dataset"
)

// Pair is one (key, value) arrival of a stream — what the samplers'
// PushBatch methods take a slice of — and one entry of a finished sample.
type Pair struct {
	Key   dataset.Key
	Value float64
}

// StreamBottomK maintains a bottom-k sample incrementally over a stream of
// (key, value) pairs, using O(k) memory and O(log k) per arrival. Values
// of the same key must arrive at most once (the instances×keys model
// assigns one value per key per instance); feeding aggregated streams is
// the caller's concern.
//
// Once k+1 items are retained the sampler is rejection-dominated: the
// common-case arrival is discarded with one seed hash, one multiply, and
// one compare against the cached threshold (see rejectGuard), touching
// the heap not at all and allocating nothing. The heap's entries carry
// their values, so an accept replaces the heap top in place.
type StreamBottomK struct {
	k    int
	fam  RankFamily
	seed SeedFunc
	// full is true once k+1 items are retained; tau then caches the
	// heap-top rank (the threshold witness) as a plain field, and
	// tauGuard = tau·fastRejectMult(fam) is the certain-reject bound.
	full     bool
	tau      float64
	tauGuard float64
	guard    float64
	h        rankHeap
}

// NewStreamBottomK returns an empty streaming bottom-k sampler.
func NewStreamBottomK(k int, fam RankFamily, seed SeedFunc) *StreamBottomK {
	if k <= 0 {
		panic("sampling: NewStreamBottomK with non-positive k")
	}
	return &StreamBottomK{
		k:        k,
		fam:      fam,
		seed:     seed,
		guard:    fastRejectMult(fam),
		tauGuard: math.NaN(),
		h:        make(rankHeap, 0, k+1),
	}
}

// Push offers one (key, value) pair to the sampler.
//
//summarylint:hot
func (s *StreamBottomK) Push(key dataset.Key, v float64) {
	if s.full {
		u := s.seed(key)
		if u >= s.tauGuard*v {
			// Certain reject: rank ≥ tau is guaranteed without computing
			// the rank (NaN tauGuard disables this for unknown families).
			return
		}
		s.pushFull(u, key, v)
		return
	}
	s.pushFill(key, v)
}

// PushBatch offers a slice of pairs, in order, and leaves the sampler where
// Push for each would. Once the sampler is full the certain-reject test runs
// here, in the loop, so the common arrival costs no call but its seed's.
//
//summarylint:hot
func (s *StreamBottomK) PushBatch(ps []Pair) {
	for len(ps) > 0 && !s.full {
		s.pushFill(ps[0].Key, ps[0].Value)
		ps = ps[1:]
	}
	for _, p := range ps {
		u := s.seed(p.Key)
		if u >= s.tauGuard*p.Value {
			continue // certain reject, as in Push (never, under a NaN tauGuard)
		}
		s.pushFull(u, p.Key, p.Value)
	}
}

// pushFull resolves an arrival inside the guard band of a full sampler
// with the exact rank comparison, evicting the heap top on accept.
//
//summarylint:hot
func (s *StreamBottomK) pushFull(u float64, key dataset.Key, v float64) {
	r := s.fam.Rank(u, v)
	if r >= s.tau {
		return
	}
	s.h[0] = Entry{Key: key, Rank: r, Value: v}
	s.h.fixTop()
	s.tau = s.h[0].Rank
	s.tauGuard = s.tau * s.guard
}

// pushFill handles arrivals while the sampler still has room.
//
//summarylint:hot
func (s *StreamBottomK) pushFill(key dataset.Key, v float64) {
	r := s.fam.Rank(s.seed(key), v)
	if math.IsInf(r, 1) {
		return
	}
	s.h.push(Entry{Key: key, Rank: r, Value: v})
	if len(s.h) == s.k+1 {
		s.full = true
		s.tau = s.h[0].Rank
		s.tauGuard = s.tau * s.guard
	}
}

// TauGuard returns the sampler's certain-reject bound: while it holds, an
// arrival (key, v) is rejected whenever seed(key) ≥ TauGuard()·v. It is
// NaN while the sampler fills and for a family without a bound (see
// fastRejectMult), and it never increases over a stream — tau only falls —
// so a producer may test arrivals against a bound it read earlier, and
// against any hi ≥ v in place of v.
func (s *StreamBottomK) TauGuard() float64 { return s.tauGuard }

// Snapshot materializes the current sample with its rank-conditioning
// threshold: the heap's entries but the threshold witness, sorted by key.
// The sampler remains usable afterwards.
func (s *StreamBottomK) Snapshot() *WeightedSample {
	if len(s.h) <= s.k {
		return newBottomKSample(s.h, math.Inf(1), s.fam)
	}
	return newBottomKSample(s.h[1:], s.h[0].Rank, s.fam)
}

// StreamPoissonPPS filters a stream down to a Poisson PPS sample with a
// fixed threshold tauStar: stateless per key, O(1) memory beyond the
// retained sample — the scheme of choice when key processing must be fully
// decoupled (e.g. sensors transmitting independently, §7.1). Key h is
// included iff its PPS rank u(h)/v(h) is below 1/tauStar, i.e. with
// probability min{1, v(h)/tauStar} (§2, §5.2). Rejected arrivals — the
// common case with a tight threshold — cost one seed hash, one multiply,
// and one compare, mirroring StreamBottomK's fast-reject; accepted ones are
// appended in arrival order and sorted by key once, when the sample is
// read out.
type StreamPoissonPPS struct {
	rankTau  float64
	tauGuard float64
	seed     SeedFunc
	out      []Pair
}

// NewStreamPoissonPPS returns an empty streaming PPS sampler with
// weight-scale threshold tauStar.
func NewStreamPoissonPPS(tauStar float64, seed SeedFunc) *StreamPoissonPPS {
	if tauStar <= 0 {
		panic("sampling: NewStreamPoissonPPS with non-positive tau")
	}
	rankTau := 1 / tauStar
	return &StreamPoissonPPS{
		rankTau:  rankTau,
		tauGuard: rankTau * (1 + rejectGuard),
		seed:     seed,
	}
}

// TauGuard returns the sampler's certain-reject bound, fixed for its
// lifetime: an arrival (key, v) is rejected whenever seed(key) ≥
// TauGuard()·v (see StreamBottomK.TauGuard).
func (s *StreamPoissonPPS) TauGuard() float64 { return s.tauGuard }

// Push offers one (key, value) pair.
//
//summarylint:hot
func (s *StreamPoissonPPS) Push(key dataset.Key, v float64) {
	u := s.seed(key)
	if u >= s.tauGuard*v {
		return
	}
	s.pushNear(u, key, v)
}

// PushBatch offers a slice of pairs, in order, and leaves the sampler where
// Push for each would; the certain-reject test runs here, in the loop.
//
//summarylint:hot
func (s *StreamPoissonPPS) PushBatch(ps []Pair) {
	for _, p := range ps {
		u := s.seed(p.Key)
		if u >= s.tauGuard*p.Value {
			continue
		}
		s.pushNear(u, p.Key, p.Value)
	}
}

// pushNear resolves an arrival inside the guard band with the exact rank
// comparison.
//
//summarylint:hot
func (s *StreamPoissonPPS) pushNear(u float64, key dataset.Key, v float64) {
	if (PPS{}).Rank(u, v) < s.rankTau {
		//summarylint:ignore only an accepted arrival appends, and what it appends is the sample itself: its growth is the output's, amortized over the accepts
		s.out = append(s.out, Pair{Key: key, Value: v})
	}
}

// Snapshot materializes the current sample, sorted by key. The sampler
// remains usable afterwards.
func (s *StreamPoissonPPS) Snapshot() *WeightedSample { return MergePoissonPPS(s) }
