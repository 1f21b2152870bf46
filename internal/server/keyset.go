package server

import (
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sync"

	"repro/internal/xhash"
)

// keySetSeed is drawn once per process and mixed into every keySet hash,
// so a client cannot choose keys that share a probe chain: the slot of a
// key depends on a value it never sees.
var keySetSeed = rand.Uint64()

// keySetMinSlots is the size of the smallest keySet table.
const keySetMinSlots = 256

// keySet is the exact repeated-key check of the ingest scanners: an
// open-addressed set of uint64 keys with linear probing over a
// power-of-two table kept at most half full. A zero slot is empty, so key
// 0 is tracked by a flag beside the table. The zero value is not ready;
// use newKeySet, and release the set when the scan is over. A set lives
// for one request; its table comes from keyTables and goes back there.
type keySet struct {
	slots   []uint64 // len is 0 or a power of two; 0 = empty slot
	n       int      // nonzero keys stored
	seed    uint64
	shift   uint8 // 64 - log2(len(slots)): a key's home is its hash's top bits
	hasZero bool
}

func newKeySet() keySet { return keySet{seed: keySetSeed} }

// release hands the set's table back to keyTables. The set must not be
// used afterwards.
func (s *keySet) release() {
	keyTables.put(s.slots)
	s.slots = nil
}

// addBatch inserts keys in order, stopping at the first one already
// present — in the set, or earlier in keys — and returns its index, or
// len(keys) when every key was new.
//
//summarylint:hot
func (s *keySet) addBatch(keys []uint64) int {
	for idx, key := range keys {
		if key == 0 {
			if s.hasZero {
				return idx
			}
			s.hasZero = true
			continue
		}
		if 2*(s.n+1) > len(s.slots) {
			s.grow()
		}
		mask := uint64(len(s.slots) - 1)
		i := s.home(key)
		for at := s.slots[i]; at != 0; at = s.slots[i] {
			if at == key {
				return idx
			}
			i = (i + 1) & mask
		}
		s.slots[i] = key
		s.n++
	}
	return len(keys)
}

// home is key's first probe position: the top bits of its seeded hash.
//
//summarylint:hot
func (s *keySet) home(key uint64) uint64 {
	return xhash.Mix64(key^s.seed) >> s.shift
}

// grow moves the set to a table of at least twice the size (or to its
// first one) and reinserts every key; the keys are distinct, so
// reinsertion only looks for an empty slot. Homes are the hash's top bits,
// so a key at slot i of a table half the size moves to about 2i and the
// pass walks both tables front to back instead of jumping around the new
// one. The old table is left to the collector.
func (s *keySet) grow() {
	old := s.slots
	s.slots = keyTables.get(max(2*len(old), keySetMinSlots))
	s.shift = uint8(64 - bits.TrailingZeros(uint(len(s.slots))))
	mask := uint64(len(s.slots) - 1)
	// Pack the keys to the front of the old table first — an unconditional
	// store and a conditional step, no branch on the coin-flip of whether
	// a slot is taken — so the insert loop below sees keys only.
	n := 0
	for _, key := range old {
		old[n] = key
		if key != 0 {
			n++
		}
	}
	for _, key := range old[:n] {
		i := s.home(key)
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = key
	}
}

// Tables of keyTableMinPooled to keyTableMaxPooled slots are recycled
// between requests. A smaller one costs less to allocate than a pooled
// one costs to clear, and a request that never outgrows it should not be
// handed — and made to clear — another request's megabytes. A larger one
// is dropped with its request, so what the list retains is bounded by
// GOMAXPROCS × keyTableMaxPooled × 8 B whatever the largest request was.
const (
	keyTableMinPooled = 1 << 13
	keyTableMaxPooled = 1 << 19 // 4 MiB
)

// keyTables is the process's free list of keySet tables. Without it each
// 100 000-key request allocates and rehashes its way through eleven
// tables, which costs more than the probes do; with it a steady producer's
// set is in its final table by its ninth batch.
//
// It is a plain bounded list and not a sync.Pool on purpose: a Pool keeps
// a cache per P plus a victim generation, which for 2 MiB tables measured
// +22–27 % resident memory on the ingest benchmark, and it gives no bound
// to state or test.
var keyTables keyTableList

// keyTableList is a free list of cleared keySet tables, at most GOMAXPROCS
// of them — one per request that can be scanning at a time.
type keyTableList struct {
	mu   sync.Mutex
	free [][]uint64
}

// get returns an all-zero table of at least the given number of slots (a
// power of two): the smallest fitting one on the list, else a new one of
// exactly that size.
func (l *keyTableList) get(slots int) []uint64 {
	if slots >= keyTableMinPooled {
		l.mu.Lock()
		best := -1
		for i, t := range l.free {
			if len(t) >= slots && (best < 0 || len(t) < len(l.free[best])) {
				best = i
			}
		}
		if best >= 0 {
			t := l.free[best]
			last := len(l.free) - 1
			l.free[best], l.free[last] = l.free[last], nil
			l.free = l.free[:last]
			l.mu.Unlock()
			return t
		}
		l.mu.Unlock()
	}
	return make([]uint64, slots)
}

// put clears a table and keeps it for the next get, unless it is outside
// the pooled sizes or the list is full.
func (l *keyTableList) put(t []uint64) {
	if len(t) < keyTableMinPooled || len(t) > keyTableMaxPooled {
		return
	}
	clear(t) // outside the lock: up to 4 MiB
	l.mu.Lock()
	if len(l.free) < runtime.GOMAXPROCS(0) {
		l.free = append(l.free, t)
	}
	l.mu.Unlock()
}
