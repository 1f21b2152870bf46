package server

import (
	"math/bits"
	"math/rand/v2"

	"repro/internal/xhash"
)

// keySetSeed is drawn once per process and mixed into every keySet hash,
// so a client cannot choose keys that share a probe chain: the slot of a
// key depends on a value it never sees.
var keySetSeed = rand.Uint64()

// keySetMinSlots is the size of a keySet's first table.
const keySetMinSlots = 256

// keySet is the exact repeated-key check of the ingest scanners: an
// open-addressed set of uint64 keys with linear probing over a
// power-of-two table kept at most half full. A zero slot is empty, so key
// 0 is tracked by a flag beside the table. The zero value is not ready;
// use newKeySet. A set lives for one request and is never pooled: its
// table is O(pairs), and a retained one would hold the largest request's
// memory for the life of the process.
type keySet struct {
	slots   []uint64 // len is 0 or a power of two; 0 = empty slot
	n       int      // nonzero keys stored
	seed    uint64
	shift   uint8 // 64 - log2(len(slots)): a key's home is its hash's top bits
	hasZero bool
}

func newKeySet() keySet { return keySet{seed: keySetSeed} }

// add inserts key and reports whether it was absent.
//
//summarylint:hot
func (s *keySet) add(key uint64) bool {
	if key == 0 {
		absent := !s.hasZero
		s.hasZero = true
		return absent
	}
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	for i := s.home(key); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = key
			s.n++
			return true
		case key:
			return false
		}
	}
}

// home is key's first probe position: the top bits of its seeded hash.
//
//summarylint:hot
func (s *keySet) home(key uint64) uint64 {
	return xhash.Mix64(key^s.seed) >> s.shift
}

// grow doubles the table (or allocates the first one) and reinserts every
// key; the keys are distinct, so reinsertion only looks for an empty slot.
// Homes are the hash's top bits, so a key at slot i moves to about 2i and
// the pass walks both tables front to back instead of jumping around the
// new one.
func (s *keySet) grow() {
	old := s.slots
	s.slots = make([]uint64, max(2*len(old), keySetMinSlots))
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
