package sampling

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/randx"
	"repro/internal/xhash"
)

// TestMergeBottomKOrderInsensitive is the merge's algebraic contract:
// combining 3+ per-shard entry sets must be commutative (any permutation
// of the groups) and associative (pre-concatenating groups), and
// insensitive to within-group entry order — the properties that let a
// dispersed system merge summaries in whatever order they arrive.
func TestMergeBottomKOrderInsensitive(t *testing.T) {
	rng := randx.New(20110613)
	seeder := xhash.Seeder{Salt: 77}
	seed := func(h dataset.Key) float64 { return seeder.Seed(0, uint64(h)) }

	for trial := 0; trial < 30; trial++ {
		k := 1 + rng.Intn(40)
		shards := 3 + rng.Intn(3)
		n := rng.Intn(300)
		samplers := make([]*StreamBottomK, shards)
		for i := range samplers {
			samplers[i] = NewStreamBottomK(k, PPS{}, seed)
		}
		for i := 0; i < n; i++ {
			h := dataset.Key(i + 1)
			v := math.Floor(1 + 50*rng.Float64())
			samplers[rng.Intn(shards)].Push(h, v)
		}
		groups := make([][]Entry, shards)
		for i, s := range samplers {
			groups[i] = s.Entries()
		}

		want := MergeBottomK(k, PPS{}, groups...)

		// Commutativity: random permutations of the group order.
		for p := 0; p < 5; p++ {
			perm := rng.Perm(shards)
			shuffled := make([][]Entry, shards)
			for i, j := range perm {
				shuffled[i] = groups[j]
			}
			if got := MergeBottomK(k, PPS{}, shuffled...); !sameSample(got, want) {
				t.Fatalf("trial %d: merge not commutative under perm %v", trial, perm)
			}
		}

		// Within-group order: shuffle each group's entries in place.
		jumbled := make([][]Entry, shards)
		for i, g := range groups {
			cp := append([]Entry(nil), g...)
			for j := len(cp) - 1; j > 0; j-- {
				l := rng.Intn(j + 1)
				cp[j], cp[l] = cp[l], cp[j]
			}
			jumbled[i] = cp
		}
		if got := MergeBottomK(k, PPS{}, jumbled...); !sameSample(got, want) {
			t.Fatalf("trial %d: merge sensitive to within-group entry order", trial)
		}

		// Associativity: concatenating the first two groups (a valid
		// coarsening — the combined stream's k+1 lowest entries are a
		// subset of the union) must not change the result.
		coarse := append([][]Entry{append(append([]Entry(nil), groups[0]...), groups[1]...)}, groups[2:]...)
		if got := MergeBottomK(k, PPS{}, coarse...); !sameSample(got, want) {
			t.Fatalf("trial %d: merge not associative under group concatenation", trial)
		}
	}
}
