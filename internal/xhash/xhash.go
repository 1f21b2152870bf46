// Package xhash provides deterministic 64-bit hashing and hash-derived
// uniform seeds.
//
// The paper's "known seeds" model requires reproducible randomization: the
// seed u_i(h) used to sample key h in instance i must be recomputable by the
// estimator. We realize this with a keyed 64-bit hash: u_i(h) is derived
// from a per-instance salt and the key, so any party holding the salt can
// reproduce every seed without storing it.
package xhash

// Mix64 is the splitmix64 finalizer: a bijective mixer with good avalanche
// behaviour. It is the core primitive behind all hashing in this repository.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash2 mixes two words into one. It is used to combine an instance salt
// with a key identifier.
func Hash2(a, b uint64) uint64 {
	return hash2Mixed(Mix64(a), b)
}

// hash2Mixed is Hash2 with its first word already mixed.
func hash2Mixed(mixedA, b uint64) uint64 {
	return Mix64(mixedA ^ b + 0x9e3779b97f4a7c15*b)
}

// Unit maps a 64-bit hash value to a float64 uniformly distributed in
// [0, 1). It uses the top 53 bits so the result is an exact dyadic rational
// and never equals 1.
func Unit(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// Seeder derives reproducible per-(instance, key) uniform seeds. The seeds
// of different instances are independent hashes, the independent-seed joint
// distribution the paper's partial-information estimators assume.
type Seeder struct {
	// Salt identifies the random hash function. Two Seeders with the same
	// Salt produce identical seeds.
	Salt uint64
}

// Seed returns the uniform [0,1) seed for key in the given instance.
func (s Seeder) Seed(instance int, key uint64) float64 {
	return Unit(Hash2(s.Salt^Mix64(uint64(instance)+1), key))
}

// InstanceSeeder is a Seeder bound to one instance: the part of Seed's
// hash that does not depend on the key, mixed once. A stream that seeds
// every key of one instance pays one Mix64 per key through it, where
// Seed pays three.
type InstanceSeeder struct {
	mixed uint64 // Mix64 of the instance's salt: Hash2's first word, mixed
}

// Instance binds the seeder to one instance. Instance(i).Seed(key) equals
// Seed(i, key) bit for bit.
func (s Seeder) Instance(instance int) InstanceSeeder {
	return InstanceSeeder{mixed: Mix64(s.Salt ^ Mix64(uint64(instance)+1))}
}

// Seed returns the uniform [0,1) seed for key in the bound instance.
func (s InstanceSeeder) Seed(key uint64) float64 {
	return Unit(hash2Mixed(s.mixed, key))
}
