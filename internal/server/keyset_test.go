package server

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// add inserts key and reports whether it was absent: the key-at-a-time
// insert the scanners called before addBatch, growing through tables it
// allocates itself — kept verbatim as addBatch's reference and as the
// baseline of BenchmarkKeySet.
func (s *keySet) add(key uint64) bool {
	if key == 0 {
		absent := !s.hasZero
		s.hasZero = true
		return absent
	}
	if 2*(s.n+1) > len(s.slots) {
		s.growFresh()
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

// growFresh is grow as add knew it: double into a newly allocated table.
func (s *keySet) growFresh() {
	old := s.slots
	s.slots = make([]uint64, max(2*len(old), keySetMinSlots))
	s.shift = uint8(64 - bits.TrailingZeros(uint(len(s.slots))))
	mask := uint64(len(s.slots) - 1)
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
// distinct keys with repeats and the zero key mixed in, one key per batch,
// through every resize up to a table exactly half full — and requires the
// same answer from both on every key. It also bounds the longest probe sequence at
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
				if got := s.addBatch([]uint64{key}) == 1; got == had {
					t.Fatalf("%s seed %#x: key %d taken as new = %v with the key present = %v", name, seed, key, got, had)
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
			s.release()
		}
	}
}

// TestKeySetZeroValueTable checks the edges around the first allocation:
// a set that has seen nothing, or only key 0, owns no table, and the first
// table is the smallest.
func TestKeySetZeroValueTable(t *testing.T) {
	s := newKeySet()
	defer s.release()
	if s.slots != nil {
		t.Fatalf("a new set owns a %d-slot table", len(s.slots))
	}
	if s.addBatch(nil) != 0 || s.slots != nil {
		t.Fatal("an empty batch: want no repeat and no table")
	}
	if s.addBatch([]uint64{0}) != 1 || s.addBatch([]uint64{0}) != 0 {
		t.Fatal("key 0: want absent then present")
	}
	if s.slots != nil {
		t.Fatalf("key 0 alone allocated a %d-slot table", len(s.slots))
	}
	if s.addBatch([]uint64{42}) != 1 || s.addBatch([]uint64{42}) != 0 || s.addBatch([]uint64{0}) != 0 {
		t.Fatal("key 42 after key 0: want absent, then both present")
	}
	if len(s.slots) != keySetMinSlots {
		t.Fatalf("first table has %d slots, want %d", len(s.slots), keySetMinSlots)
	}
}

// contents returns the set's keys in ascending order, key 0 included.
func (s *keySet) contents() []uint64 {
	var keys []uint64
	if s.hasZero {
		keys = append(keys, 0)
	}
	for _, key := range s.slots {
		if key != 0 {
			keys = append(keys, key)
		}
	}
	slices.Sort(keys)
	return keys
}

// checkBatchesAgainstAdd feeds the same batches to a set through addBatch,
// to a second set key by key through add, and to a map, and requires all
// three to agree: after every batch on the index of the first repeat — in
// the set or earlier in the batch — and, after every batch that had one
// and at the end, on what the set then holds, which is everything before
// that index and nothing after it.
func checkBatchesAgainstAdd(t *testing.T, seed uint64, batches [][]uint64) {
	t.Helper()
	batched, single := keySet{seed: seed}, keySet{seed: seed}
	defer batched.release()
	model := make(map[uint64]struct{})
	for b, keys := range batches {
		want := len(keys)
		for i, key := range keys {
			if _, had := model[key]; had {
				want = i
				break
			}
			model[key] = struct{}{}
			if !single.add(key) {
				t.Fatalf("batch %d: add(%d) says present, the map absent", b, key)
			}
		}
		if want < len(keys) && single.add(keys[want]) {
			t.Fatalf("batch %d: add(%d) says absent, the map present", b, keys[want])
		}
		if got := batched.addBatch(keys); got != want {
			t.Fatalf("batch %d (%d keys, set of %d): addBatch = %d, want first repeat %d", b, len(keys), len(model), got, want)
		}
		if want < len(keys) || b == len(batches)-1 {
			if got, want := batched.contents(), single.contents(); !slices.Equal(got, want) || len(got) != len(model) {
				t.Fatalf("batch %d: addBatch set holds %d keys, add set %d, map %d", b, len(got), len(want), len(model))
			}
		}
		if 2*batched.n > len(batched.slots) {
			t.Fatalf("batch %d: %d keys in %d slots, over half full", b, batched.n, len(batched.slots))
		}
	}
}

// TestKeySetBatchAgainstAdd is the table of addBatch's edges.
func TestKeySetBatchAgainstAdd(t *testing.T) {
	seq := func(from, n int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(from + i)
		}
		return keys
	}
	with := func(keys []uint64, at int, key uint64) []uint64 {
		keys = slices.Clone(keys)
		keys[at] = key
		return keys
	}
	for name, batches := range map[string][][]uint64{
		"empty batches":                {{}, seq(1, 3), {}},
		"one full batch":               {seq(1, ingestBatch)},
		"key 0 first and again":        {{0, 5, 6}, {7, 0, 8}},
		"key 0 twice in one batch":     {{4, 0, 5, 0, 6}},
		"only key 0":                   {{0}, {0}},
		"repeat inside a batch":        {with(seq(1, ingestBatch), 200, 17)},
		"repeat early in a batch":      {with(seq(1, ingestBatch), 3, 2)},
		"adjacent repeat":              {{9, 9}},
		"repeat across batches":        {seq(1, ingestBatch), seq(1000, ingestBatch), with(seq(2000, ingestBatch), 255, 1001)},
		"repeat first in a batch":      {seq(1, 10), with(seq(100, 10), 0, 10)},
		"repeat from before a growth":  {seq(1, 100), seq(1000, 3000), {5000, 50}},
		"growth in the middle":         {seq(1, 100), seq(1000, ingestBatch)}, // 256 slots fill at key 128 of 356
		"growth, then a repeat":        {seq(1, 100), with(seq(1000, ingestBatch), 250, 1003)},
		"growth into the pooled sizes": {seq(1, 5000), seq(10000, 5000), {10001}},
		"nothing after the repeat":     {{1, 2, 2, 3}, {3}},
		"batches of one":               {{1}, {2}, {1}},
	} {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []uint64{0, 0x9e3779b97f4a7c15} {
				checkBatchesAgainstAdd(t, seed, batches)
			}
		})
	}
	// And every stream of TestKeySetAgainstMap, cut into batches of ragged
	// sizes, with a repeat at the end.
	for name, keys := range keySetStreams(1 << 14) {
		var batches [][]uint64
		for size := 1; len(keys) > 0; size = size*3%(ingestBatch+1) + 1 {
			size = min(size, len(keys))
			batches, keys = append(batches, keys[:size]), keys[size:]
		}
		batches = append(batches, []uint64{batches[0][0]})
		t.Run(name, func(t *testing.T) { checkBatchesAgainstAdd(t, 1, batches) })
	}
}

// FuzzKeySetBatch holds addBatch to add and the map on batches the fuzzer
// cuts: each byte pair is one key from a small universe (so repeats are
// common; 0 is the out-of-band key) or, for a high first byte, a batch
// boundary; lead distinct keys go in first so that the cuts land on
// either side of table growths.
func FuzzKeySetBatch(f *testing.F) {
	f.Add(uint16(0), []byte{0, 1, 0, 2, 0, 1})             // a repeat inside one batch
	f.Add(uint16(0), []byte{0, 0, 0, 5, 255, 0, 0, 0})     // key 0, a boundary, key 0 again
	f.Add(uint16(120), []byte{0, 1, 0, 2, 0, 3, 0, 4})     // growth in the middle of a batch
	f.Add(uint16(300), []byte{0, 9, 255, 0, 1, 44, 1, 44}) // a repeat of an earlier batch's key
	f.Add(uint16(5000), []byte{1, 1, 255, 255, 1, 1})      // into the pooled table sizes
	f.Fuzz(func(t *testing.T, lead uint16, data []byte) {
		var batches [][]uint64
		for from := 0; from < int(lead); from += ingestBatch {
			batch := make([]uint64, min(ingestBatch, int(lead)-from))
			for i := range batch {
				batch[i] = 1<<32 + uint64(from+i)
			}
			batches = append(batches, batch)
		}
		var batch []uint64
		for ; len(data) >= 2; data = data[2:] {
			if data[0] >= 250 || len(batch) == ingestBatch {
				batches, batch = append(batches, batch), nil
			}
			if data[0] < 250 {
				key := uint64(data[0])<<8 | uint64(data[1])
				if data[0] >= 200 { // sometimes one of the lead keys
					key = 1<<32 + key%(uint64(lead)+1)
				}
				batch = append(batch, key)
			}
		}
		checkBatchesAgainstAdd(t, uint64(lead)*0x9e3779b97f4a7c15, append(batches, batch))
	})
}

// TestKeyTableListBounds pins what the free list may retain: cleared
// tables only, of the pooled sizes only, and never more than GOMAXPROCS.
func TestKeyTableListBounds(t *testing.T) {
	if keyTableMaxPooled != 1<<19 {
		t.Fatalf("keyTableMaxPooled = %d slots; the README states 2^19 (4 MiB)", keyTableMaxPooled)
	}
	var l keyTableList
	dirty := func(slots int) []uint64 {
		tab := make([]uint64, slots)
		for i := range tab {
			tab[i] = uint64(i) | 1
		}
		return tab
	}
	// Outside the pooled sizes: dropped, and get allocates exactly.
	l.put(dirty(keyTableMinPooled / 2))
	l.put(dirty(2 * keyTableMaxPooled))
	if len(l.free) != 0 {
		t.Fatalf("list kept %d tables outside [%d, %d] slots", len(l.free), keyTableMinPooled, keyTableMaxPooled)
	}
	if got := l.get(2 * keyTableMaxPooled); len(got) != 2*keyTableMaxPooled {
		t.Fatalf("get(%d) returned %d slots", 2*keyTableMaxPooled, len(got))
	}
	// Inside: kept up to the cap, cleared.
	limit := runtime.GOMAXPROCS(0)
	for i := 0; i < limit+3; i++ {
		l.put(dirty(keyTableMinPooled << (i % 3)))
	}
	if len(l.free) != limit {
		t.Fatalf("list holds %d tables after %d puts, want the cap of GOMAXPROCS = %d", len(l.free), limit+3, limit)
	}
	retained := 0
	for _, tab := range l.free {
		retained += 8 * len(tab)
	}
	if bound := limit * keyTableMaxPooled * 8; retained > bound {
		t.Fatalf("list retains %d bytes, over the stated bound of %d", retained, bound)
	}
	// A small request is never handed a pooled table; a large one gets the
	// smallest that fits, all zero.
	if got := l.get(keyTableMinPooled / 2); len(got) != keyTableMinPooled/2 || len(l.free) != limit {
		t.Fatalf("get(%d) = %d slots with %d of %d tables left", keyTableMinPooled/2, len(got), len(l.free), limit)
	}
	for n := limit; n > 0; n-- {
		smallest := len(l.free[0])
		for _, tab := range l.free {
			smallest = min(smallest, len(tab))
		}
		got := l.get(keyTableMinPooled)
		if len(got) != smallest || len(l.free) != n-1 {
			t.Fatalf("get(%d) = %d slots with %d tables left, want the smallest (%d) of %d", keyTableMinPooled, len(got), len(l.free), smallest, n)
		}
		for i, key := range got {
			if key != 0 {
				t.Fatalf("recycled table of %d slots holds %d at slot %d", len(got), key, i)
			}
		}
	}
	if got := l.get(keyTableMinPooled); len(got) != keyTableMinPooled {
		t.Fatalf("get(%d) from an empty list = %d slots", keyTableMinPooled, len(got))
	}
}

// TestKeySetRecyclesItsTable follows one table through two requests' worth
// of set: released by the first, it is the second's from its first pooled
// growth on, empty, and the second set never allocates another.
func TestKeySetRecyclesItsTable(t *testing.T) {
	for len(keyTables.get(keyTableMinPooled)) > keyTableMinPooled {
		// Drain what other tests left, so the table below is the only one.
	}
	const n = 20_000
	fill := func(s *keySet) {
		for from := 1; from <= n; from += ingestBatch {
			batch := make([]uint64, ingestBatch)
			for i := range batch {
				batch[i] = uint64(from + i)
			}
			if got := s.addBatch(batch); got != len(batch) {
				t.Fatalf("addBatch found a repeat at %d among distinct keys", got)
			}
		}
	}
	first := newKeySet()
	fill(&first)
	table := &first.slots[0]
	first.release()
	if first.slots != nil {
		t.Fatal("release left the set its table")
	}
	second := newKeySet()
	defer second.release()
	fill(&second)
	if &second.slots[0] != table {
		t.Fatalf("second set ended in a table of its own (%d slots), not the released one", len(second.slots))
	}
	if got := len(second.contents()); got != second.n || second.n < n {
		t.Fatalf("second set holds %d keys (n = %d) after %d distinct adds: the table came back dirty", got, second.n, n)
	}
}

// TestKeyTableListConcurrent is for the race detector: sets grown and
// released from many goroutines at once, each checking that whatever
// table it was handed was empty.
func TestKeyTableListConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]uint64, ingestBatch)
			for round := 0; round < 20; round++ {
				s := newKeySet()
				for from := 0; from < 3*keyTableMinPooled/2; from += ingestBatch {
					for i := range batch {
						batch[i] = uint64(g)<<40 | uint64(round)<<20 | uint64(from+i+1)
					}
					if got := s.addBatch(batch); got != len(batch) {
						t.Errorf("goroutine %d round %d: repeat at %d among distinct keys", g, round, got)
					}
				}
				s.release()
			}
		}()
	}
	wg.Wait()
	keyTables.mu.Lock()
	defer keyTables.mu.Unlock()
	if got, limit := len(keyTables.free), runtime.GOMAXPROCS(0); got > limit {
		t.Fatalf("free list holds %d tables, over the cap of %d", got, limit)
	}
}

// BenchmarkKeySet measures the repeated-key check alone on one ingest_raw
// sized request: 100 000 distinct keys into a fresh set, which is released
// at the end as a scan releases it. add is the key-at-a-time insert the
// scanners used to call; addBatch takes the same keys ingestBatch at a
// time.
func BenchmarkKeySet(b *testing.B) {
	const n = 100_000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = (uint64(i)*0x9e3779b97f + 0x5bd1e995) & (1<<40 - 1) // scanBody's keys
	}
	run := func(name string, insert func(s *keySet)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := newKeySet()
				insert(&s)
				if s.n != n {
					b.Fatalf("set holds %d of %d keys", s.n, n)
				}
				s.release()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/key")
		})
	}
	run("add", func(s *keySet) {
		for _, key := range keys {
			s.add(key)
		}
	})
	run("addBatch", func(s *keySet) {
		for done := 0; done < n; done += ingestBatch {
			s.addBatch(keys[done:min(done+ingestBatch, n)])
		}
	})
}
