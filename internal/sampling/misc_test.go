package sampling

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/randx"
)

func TestRankFamilyNames(t *testing.T) {
	if (PPS{}).Name() != "pps" || (EXP{}).Name() != "exp" {
		t.Error("family names wrong")
	}
}

// heapOK reports whether h satisfies the max-heap property everywhere.
func heapOK(h rankHeap) bool {
	for i := 1; i < len(h); i++ {
		if h[(i-1)/2].rank < h[i].rank {
			return false
		}
	}
	return true
}

func TestRankHeapSift(t *testing.T) {
	rng := randx.New(42)
	h := make(rankHeap, 0, 65)
	for i := 0; i < 64; i++ {
		h.push(rankedKey{key: dataset.Key(i), rank: rng.Float64()})
		if !heapOK(h) {
			t.Fatalf("heap property violated after push %d: %v", i, h)
		}
	}
	// Evictions replace the top in place and sift down, as a full
	// bottom-k sampler does; the top must always be the maximum.
	for i := 0; i < 256; i++ {
		max := 0.0
		for _, rk := range h {
			if rk.rank > max {
				max = rk.rank
			}
		}
		if h[0].rank != max {
			t.Fatalf("heap top %v, want max %v", h[0].rank, max)
		}
		h[0] = rankedKey{key: dataset.Key(1000 + i), rank: rng.Float64()}
		h.fixTop()
		if !heapOK(h) {
			t.Fatalf("heap property violated after eviction %d", i)
		}
	}
}

// TestRankHeapPushAllocs: the k-fill path must not box — pushing into a
// heap with spare capacity allocates nothing (the old container/heap path
// boxed every rankedKey through interface{}).
func TestRankHeapPushAllocs(t *testing.T) {
	h := make(rankHeap, 0, 128)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		h.push(rankedKey{key: dataset.Key(i), rank: float64(i % 17)})
		i++
		if len(h) == cap(h) {
			h = h[:0]
		}
	})
	if allocs != 0 {
		t.Errorf("rankHeap.push allocs/op = %v, want 0", allocs)
	}
}

func TestNewVarOptValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewVarOpt(0) did not panic")
		}
	}()
	NewVarOpt(0, randx.New(1))
}

func TestStreamBottomKLenCap(t *testing.T) {
	seeder := func(h dataset.Key) float64 { return float64(h%97) / 97 }
	s := NewStreamBottomK(3, PPS{}, func(h dataset.Key) float64 { return seeder(h) })
	for k := dataset.Key(1); k <= 10; k++ {
		s.Push(k, float64(k))
	}
	// Internally k+1 items are retained; Len reports at most k.
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	if snap := s.Snapshot(); len(snap.Values) != 3 {
		t.Errorf("snapshot size %d, want 3", len(snap.Values))
	}
}

// Len returns the number of retained keys (at most k+1 internally; the
// (k+1)-st is the threshold witness and excluded from Snapshot).
func (s *StreamBottomK) Len() int {
	if len(s.h) > s.k {
		return s.k
	}
	return len(s.h)
}

// Len returns the current reservoir size.
func (v *VarOpt) Len() int { return len(v.items) }
