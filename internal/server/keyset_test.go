package server

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// keySetStreams are key sequences of n distinct nonzero keys each (plus
// whatever repeats and zeros the test mixes in): uniformly random keys,
// the sequential IDs most producers send, multiples of 2^k, which leave a
// hash that only looks at low bits with a single home slot, and multiples
// of the inverse of the golden-ratio constant, which a bare multiply by
// that constant — the usual cheap integer hash — maps back to 1, 2, 3, …
// and so into one chain at the bottom of a table indexed by top bits.
func keySetStreams(n int) map[string][]uint64 {
	rng := rand.New(rand.NewPCG(2011, 12))
	random := make([]uint64, n)
	for i := range random {
		random[i] = rng.Uint64() | 1
	}
	sequential := make([]uint64, n)
	for i := range sequential {
		sequential[i] = uint64(i + 1)
	}
	const goldenInverse = 0xf1de83e19937733d // * 0x9e3779b97f4a7c15 = 1 mod 2^64
	unmultiplied := make([]uint64, n)
	for i := range unmultiplied {
		unmultiplied[i] = uint64(i+1) * goldenInverse
	}
	streams := map[string][]uint64{"random": random, "sequential": sequential, "golden-inverse multiples": unmultiplied}
	for _, k := range []uint{8, 20, 32, 47} {
		mult := make([]uint64, n)
		for i := range mult {
			mult[i] = uint64(i+1) << k
		}
		streams[fmt.Sprintf("multiples-of-2^%d", k)] = mult
	}
	return streams
}

// longestProbe is the most slots any stored key sits from its home slot,
// counting the home slot itself: the cost of the worst lookup.
func longestProbe(s *keySet) int {
	mask := uint64(len(s.slots) - 1)
	longest := 0
	for i, key := range s.slots {
		if key == 0 {
			continue
		}
		if d := int((uint64(i)-s.home(key))&mask) + 1; d > longest {
			longest = d
		}
	}
	return longest
}

// TestKeySetAgainstMap drives a keySet and a map with the same stream —
// distinct keys with repeats and the zero key mixed in, through every
// resize up to a table exactly half full — and requires the same answer
// from both on every add. It also bounds the longest probe sequence at
// that load: linear probing behind a well-mixed hash stays within a few
// dozen slots there, while a hash that lets a structured key set collide
// runs to thousands, so a weak mix fails here and not under a request.
func TestKeySetAgainstMap(t *testing.T) {
	const n = 1 << 16 // fills a 2^17-slot table to exactly one half
	const maxProbe = 64
	for name, keys := range keySetStreams(n) {
		// Fixed seeds, so the probe bound is a property of the hash and not
		// of this process's luck; 0 is the set with no secret at all.
		for _, seed := range []uint64{0, 1, 0x9e3779b97f4a7c15} {
			s := keySet{seed: seed}
			model := make(map[uint64]struct{}, n)
			check := func(key uint64) {
				t.Helper()
				_, had := model[key]
				model[key] = struct{}{}
				if got := s.add(key); got == had {
					t.Fatalf("%s seed %#x: add(%d) = %v with the key present = %v", name, seed, key, got, had)
				}
			}
			for i, key := range keys {
				check(key)
				switch {
				case i%1000 == 7:
					check(key) // an immediate repeat
				case i%1000 == 500:
					check(keys[i/2]) // a repeat from before the last resize
				case i%10000 == 9:
					check(0) // the out-of-band key, first and repeated
				}
			}
			if got, want := s.n+1, len(model); got != want { // +1: key 0 sits beside the table
				t.Fatalf("%s seed %#x: set holds %d keys, map %d", name, seed, got, want)
			}
			if len(s.slots) != 2*n {
				t.Fatalf("%s seed %#x: %d keys in %d slots, want a half-full table of %d", name, seed, n, len(s.slots), 2*n)
			}
			if got := longestProbe(&s); got > maxProbe {
				t.Errorf("%s seed %#x: longest probe sequence %d slots at load 1/2, want <= %d", name, seed, got, maxProbe)
			}
		}
	}
}

// TestKeySetZeroValueTable checks the edges around the first allocation:
// a set that has seen nothing, or only key 0, owns no table.
func TestKeySetZeroValueTable(t *testing.T) {
	s := newKeySet()
	if !s.add(0) || s.add(0) {
		t.Fatal("key 0: want absent then present")
	}
	if s.slots != nil {
		t.Fatalf("key 0 alone allocated a %d-slot table", len(s.slots))
	}
	if !s.add(42) || s.add(42) || s.add(0) {
		t.Fatal("key 42 after key 0: want absent, then both present")
	}
	if len(s.slots) != keySetMinSlots {
		t.Fatalf("first table has %d slots, want %d", len(s.slots), keySetMinSlots)
	}
}
