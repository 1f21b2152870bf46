package xhash

import (
	"math"
	"testing"
)

// Fuzz targets for seed derivation stability. The "known seeds" model
// collapses if any of these break: seeds must be pure functions of
// (salt, instance, key), land in [0,1), and differ across instances. `go test` runs the seed corpus;
// `go test -fuzz=FuzzX` explores.

func FuzzSeederStability(f *testing.F) {
	f.Add(uint64(0), uint64(0), 0)
	f.Add(uint64(1), uint64(1), 1)
	f.Add(uint64(0xdeadbeef), ^uint64(0), 1<<20)
	f.Fuzz(func(t *testing.T, salt, key uint64, instance int) {
		s := Seeder{Salt: salt}
		u := s.Seed(instance, key)
		if u != s.Seed(instance, key) {
			t.Fatal("Seed is not deterministic")
		}
		if !(u >= 0 && u < 1) {
			t.Fatalf("Seed out of [0,1): %v", u)
		}
		if math.IsNaN(u) {
			t.Fatal("Seed is NaN")
		}
		if fresh := (Seeder{Salt: salt}).Seed(instance, key); fresh != u {
			t.Fatal("Seed depends on Seeder identity, not value")
		}
		if bound := s.Instance(instance).Seed(key); math.Float64bits(bound) != math.Float64bits(u) {
			t.Fatalf("Instance(%d).Seed = %v, Seed = %v", instance, bound, u)
		}
		if ref := seedRef(s, instance, key); math.Float64bits(ref) != math.Float64bits(u) {
			t.Fatalf("Seed = %v, the original derivation %v", u, ref)
		}
		if instance < 1<<30 {
			// Independent instances derive from distinct salts; a collision
			// of the full 53-bit seed across adjacent instances means the
			// instance is not being mixed in at all for this input.
			if s.Seed(instance, key) == s.Seed(instance+1, key) &&
				s.Seed(instance, key+1) == s.Seed(instance+1, key+1) &&
				s.Seed(instance, key+2) == s.Seed(instance+1, key+2) {
				t.Fatal("independent Seeder ignores the instance")
			}
		}
	})
}

func FuzzUnitRange(f *testing.F) {
	f.Add(uint64(0))
	f.Add(^uint64(0))
	f.Add(uint64(1) << 63)
	f.Fuzz(func(t *testing.T, h uint64) {
		u := Unit(h)
		if !(u >= 0 && u < 1) {
			t.Fatalf("Unit(%d) = %v out of [0,1)", h, u)
		}
		if Mix64(h) != Mix64(h) {
			t.Fatal("Mix64 is not deterministic")
		}
	})
}
