package xhash

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestMix64Bijective(t *testing.T) {
	// Distinct inputs must map to distinct outputs (spot check over a
	// structured set that would expose weak mixing).
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 100000; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision: Mix64(%d) == Mix64(%d)", i, prev)
		}
		seen[h] = i
	}
}

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	for bit := 0; bit < 64; bit++ {
		flips := 0
		const trials = 200
		for i := 0; i < trials; i++ {
			x := Mix64(uint64(i) * 0x9e3779b97f4a7c15)
			d := Mix64(x) ^ Mix64(x^(1<<uint(bit)))
			for d != 0 {
				flips += int(d & 1)
				d >>= 1
			}
		}
		avg := float64(flips) / trials
		if avg < 24 || avg > 40 {
			t.Errorf("bit %d: average %v output bits flipped, want ≈32", bit, avg)
		}
	}
}

func TestUnitRange(t *testing.T) {
	f := func(x uint64) bool {
		u := Unit(x)
		return u >= 0 && u < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Unit(0) != 0 {
		t.Errorf("Unit(0) = %v, want 0", Unit(0))
	}
	if u := Unit(math.MaxUint64); u >= 1 {
		t.Errorf("Unit(max) = %v, want < 1", u)
	}
	if UnitPos(0) <= 0 {
		t.Errorf("UnitPos(0) = %v, want > 0", UnitPos(0))
	}
}

func TestUnitUniformity(t *testing.T) {
	// Bucket hashed seeds and check rough uniformity.
	const n, buckets = 200000, 20
	var counts [buckets]int
	for i := 0; i < n; i++ {
		u := Unit(Mix64(uint64(i)))
		counts[int(u*buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("bucket %d: %d observations, want ≈%v", b, c, want)
		}
	}
}

func TestSeederIndependentAcrossInstances(t *testing.T) {
	indep := Seeder{Salt: 99}
	for k := uint64(0); k < 1000; k++ {
		if indep.Seed(0, k) == indep.Seed(1, k) {
			t.Fatalf("independent seeder produced identical cross-instance seeds for key %d", k)
		}
	}
}

func TestSeederDeterministic(t *testing.T) {
	a := Seeder{Salt: 7}
	b := Seeder{Salt: 7}
	c := Seeder{Salt: 8}
	for k := uint64(0); k < 100; k++ {
		if a.Seed(3, k) != b.Seed(3, k) {
			t.Fatalf("same salt, different seeds for key %d", k)
		}
		if a.Seed(3, k) == c.Seed(3, k) {
			t.Fatalf("different salt, same seed for key %d", k)
		}
	}
}

func TestHashStringDistinct(t *testing.T) {
	seen := make(map[uint64]string)
	keys := []string{"", "a", "b", "ab", "ba", "abc", "acb", "key-1", "key-2", "1-key"}
	for _, k := range keys {
		h := HashString(1, k)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision between %q and %q", k, prev)
		}
		seen[h] = k
	}
	if HashString(1, "x") == HashString(2, "x") {
		t.Error("salt has no effect on HashString")
	}
	s := Seeder{Salt: 5}
	if s.SeedString(0, "x") == s.SeedString(1, "x") {
		t.Error("independent SeedString identical across instances")
	}
}

// seedRef is Seeder.Seed as it was written before the per-instance form:
// both constants of the stream mixed again for every key.
func seedRef(s Seeder, instance int, key uint64) float64 {
	salt := s.Salt ^ Mix64(uint64(instance)+1)
	return Unit(Mix64(Mix64(salt) ^ key + 0x9e3779b97f4a7c15*key))
}

// TestInstanceSeederMatchesSeed holds the pre-mixed per-instance form, and
// Seed which now runs through it, to the original derivation bit for bit:
// over random inputs, and on seeds recorded before the change.
func TestInstanceSeederMatchesSeed(t *testing.T) {
	check := func(salt, key uint64, instance int) {
		t.Helper()
		s := Seeder{Salt: salt}
		want := math.Float64bits(seedRef(s, instance, key))
		if got := math.Float64bits(s.Seed(instance, key)); got != want {
			t.Fatalf("Seeder{%#x}.Seed(%d, %#x) = %#x, want %#x", salt, instance, key, got, want)
		}
		if got := math.Float64bits(s.Instance(instance).Seed(key)); got != want {
			t.Fatalf("Seeder{%#x}.Instance(%d).Seed(%#x) = %#x, want %#x", salt, instance, key, got, want)
		}
	}
	rng := rand.New(rand.NewPCG(2011, 15))
	for i := 0; i < 100_000; i++ {
		check(rng.Uint64(), rng.Uint64(), int(rng.Int64())>>rng.IntN(64))
	}
	for _, g := range []struct {
		salt, key uint64
		instance  int
		bits      uint64
	}{
		{0x0, 0x0, 0, 0x3fe631405e8db1b0},
		{0xdeadbeef, 0xffffffffffffffff, 1048576, 0x3fd3c75bcaa1b390},
		{0x7db, 0x2a, 3, 0x3fd3403afcf5e57c},
		{0x7db, 0x2a, -1, 0x3fd676fc578105cc},
	} {
		check(g.salt, g.key, g.instance)
		if got := math.Float64bits((Seeder{Salt: g.salt}).Seed(g.instance, g.key)); got != g.bits {
			t.Errorf("Seeder{%#x}.Seed(%d, %#x) = %#x, recorded %#x", g.salt, g.instance, g.key, got, g.bits)
		}
	}
}
