package sampling

// rankHeap is a binary max-heap on rank stored in a slice, so the largest
// retained rank sits at h[0] and can be evicted when a smaller rank
// arrives. The sift loops are written out instead of going through
// container/heap: the interface{}-based heap.Push boxes every Entry,
// which costs one allocation per retained arrival on the k-fill path.
type rankHeap []Entry

// push appends e and restores the heap property by sifting it up.
func (h *rankHeap) push(e Entry) {
	*h = append(*h, e)
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if hh[parent].Rank >= hh[i].Rank {
			break
		}
		hh[parent], hh[i] = hh[i], hh[parent]
		i = parent
	}
}

// fixTop restores the heap property after h[0] was replaced in place — the
// eviction step of a full bottom-k sampler.
func (h rankHeap) fixTop() {
	n := len(h)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h[r].Rank > h[c].Rank {
			c = r
		}
		if h[i].Rank >= h[c].Rank {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
