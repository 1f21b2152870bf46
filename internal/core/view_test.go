package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sampling"
	"repro/internal/simdata"
)

// viewFixtures builds one summary of every kind the v2 wire speaks,
// including the VarOpt reservoir and edge shapes (empty, unbounded
// bottom-k threshold, never-overflowed VarOpt).
func viewFixtures(s *Summarizer) []Summary {
	m := simdata.Generate(simdata.ScaledTraffic(150))
	members := make(map[dataset.Key]bool, len(m.Instances[0]))
	for h := range m.Instances[0] {
		members[h] = true
	}
	return []Summary{
		s.SummarizePPSExpectedSize(0, m.Instances[0], 60),
		s.SummarizeSet(1, members, 0.4),
		s.SummarizeBottomK(2, m.Instances[1], 40, sampling.PPS{}),
		s.SummarizeBottomK(3, m.Instances[1], 40, sampling.EXP{}),
		s.SummarizeBottomK(4, dataset.Instance{7: 5, 9: 3}, 10, sampling.PPS{}),
		s.SummarizeVarOpt(5, m.Instances[0], 48),
		s.SummarizeVarOpt(6, dataset.Instance{3: 2.5, 8: 1.5}, 10), // never overflowed: tau = 0
		s.SummarizePPSExpectedSize(7, dataset.Instance{}, 10),      // empty
	}
}

// mustView encodes s to v2 bytes and parses them back as a zero-copy view.
func mustView(t testing.TB, s Summary) (Summary, []byte) {
	t.Helper()
	data, err := EncodeSummary(s, 2)
	if err != nil {
		t.Fatalf("EncodeSummary(%s, 2): %v", s.Kind(), err)
	}
	v, err := ParseSummaryView(data)
	if err != nil {
		t.Fatalf("ParseSummaryView(%s): %v", s.Kind(), err)
	}
	return v, data
}

// TestViewRoundTripRawBytes: re-encoding a view to v2 is a raw copy — the
// output bytes equal the input bytes exactly, for every kind.
func TestViewRoundTripRawBytes(t *testing.T) {
	for _, s := range viewFixtures(NewSummarizer(0xFEED)) {
		v, data := mustView(t, s)
		out, err := EncodeSummary(v, 2)
		if err != nil {
			t.Fatalf("re-encode view %s: %v", s.Kind(), err)
		}
		if !bytes.Equal(out, data) {
			t.Errorf("kind %s: view re-encode differs from original wire bytes", s.Kind())
		}
		// The JSON path materializes; decoding it must reproduce the summary.
		js, err := EncodeSummary(v, 1)
		if err != nil {
			t.Fatalf("JSON-encode view %s: %v", s.Kind(), err)
		}
		back, err := DecodeSummary(js)
		if err != nil {
			t.Fatalf("decode JSON of view %s: %v", s.Kind(), err)
		}
		if back.Kind() != s.Kind() || back.Size() != s.Size() || back.InstanceID() != s.InstanceID() {
			t.Errorf("kind %s: JSON round trip via view lost identity", s.Kind())
		}
	}
}

// TestViewSummaryMetadata: views report the same kind, size, instance, and
// seeder as the summary they encode.
func TestViewSummaryMetadata(t *testing.T) {
	for _, mk := range []func(uint64) *Summarizer{NewSummarizer, NewCoordinatedSummarizer} {
		for _, s := range viewFixtures(mk(0xABCD)) {
			v, _ := mustView(t, s)
			if v.Kind() != s.Kind() || v.Size() != s.Size() || v.InstanceID() != s.InstanceID() {
				t.Errorf("view of %s: metadata mismatch (kind %s size %d instance %d)",
					s.Kind(), v.Kind(), v.Size(), v.InstanceID())
			}
			if v.seederOf() != s.seederOf() {
				t.Errorf("view of %s: seeder mismatch", s.Kind())
			}
		}
	}
}

// TestViewSubsetSumBitIdentical: every per-summary estimate a view can
// answer matches the hydrated decode of the same bytes bit for bit — with
// nil selectors and with a proper subset selector.
func TestViewSubsetSumBitIdentical(t *testing.T) {
	sel := func(h dataset.Key) bool { return h%3 != 0 }
	for _, s := range viewFixtures(NewSummarizer(0x5EED)) {
		v, data := mustView(t, s)
		dec, err := DecodeSummary(data)
		if err != nil {
			t.Fatalf("DecodeSummary(%s): %v", s.Kind(), err)
		}
		type subsetSummer interface {
			SubsetSum(func(dataset.Key) bool) float64
		}
		vs, ok1 := v.(subsetSummer)
		ds, ok2 := dec.(subsetSummer)
		if ok1 != ok2 {
			t.Fatalf("kind %s: view and decode disagree on SubsetSum support", s.Kind())
		}
		if !ok1 {
			continue
		}
		for name, f := range map[string]func(dataset.Key) bool{"all": nil, "subset": sel} {
			got, want := vs.SubsetSum(f), ds.SubsetSum(f)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("kind %s, sel %s: view SubsetSum %v != hydrated %v", s.Kind(), name, got, want)
			}
		}
	}
}

// TestViewLookupMatchesHydrated: binary-search lookups over wire entries
// agree with map lookups for present and absent keys.
func TestViewLookupMatchesHydrated(t *testing.T) {
	s := NewSummarizer(0xD0)
	m := simdata.Generate(simdata.ScaledTraffic(150))
	pps := s.SummarizePPSExpectedSize(0, m.Instances[0], 60)
	pv, _ := mustView(t, pps)
	pr := pv.(PPSReader)
	if pr.PPSTau() != pps.Tau {
		t.Fatalf("view tau %v != %v", pr.PPSTau(), pps.Tau)
	}
	probe := append(pps.AppendKeys(nil), 0, 1, math.MaxUint64/2, math.MaxUint64)
	for _, h := range probe {
		gv, gok := pr.Lookup(h)
		wv, wok := pps.Lookup(h)
		if gok != wok || gv != wv {
			t.Errorf("key %d: view Lookup (%v,%v) != hydrated (%v,%v)", h, gv, gok, wv, wok)
		}
	}

	members := make(map[dataset.Key]bool, len(m.Instances[1]))
	for h := range m.Instances[1] {
		members[h] = true
	}
	set := s.SummarizeSet(1, members, 0.3)
	sv, _ := mustView(t, set)
	sr := sv.(SetReader)
	probe = append(set.AppendKeys(nil), 0, 42, math.MaxUint64)
	for _, h := range probe {
		if sr.Contains(h) != set.Contains(h) {
			t.Errorf("key %d: view Contains %v != hydrated %v", h, sr.Contains(h), set.Contains(h))
		}
	}
	if sr.SetP() != set.P {
		t.Errorf("view p %v != %v", sr.SetP(), set.P)
	}
}

// TestViewQueriesBitIdentical: the multi-summary queries answer with
// bit-identical floats whether the inputs are hydrated summaries, views,
// or a mix of both.
func TestViewQueriesBitIdentical(t *testing.T) {
	s := NewSummarizer(0xBEEF)
	m := simdata.Generate(simdata.ScaledTraffic(200))
	// A third instance (the generator produces two): shifted, rescaled keys.
	inst3 := make(dataset.Instance, len(m.Instances[0]))
	for h, v := range m.Instances[0] {
		inst3[h+1] = v * 1.5
	}
	instances := []dataset.Instance{m.Instances[0], m.Instances[1], inst3}

	// Max-dominance over two PPS summaries.
	p1 := s.SummarizePPSExpectedSize(0, m.Instances[0], 70)
	p2 := s.SummarizePPSExpectedSize(1, m.Instances[1], 70)
	v1, _ := mustView(t, p1)
	v2, _ := mustView(t, p2)
	want, err := MaxDominance(p1, p2, nil)
	if err != nil {
		t.Fatalf("MaxDominance hydrated: %v", err)
	}
	for name, pair := range map[string][2]PPSReader{
		"views": {v1.(PPSReader), v2.(PPSReader)},
		"mixed": {p1, v2.(PPSReader)},
	} {
		got, err := MaxDominanceReaders(pair[0], pair[1], nil)
		if err != nil {
			t.Fatalf("MaxDominanceReaders %s: %v", name, err)
		}
		if math.Float64bits(got.HT) != math.Float64bits(want.HT) ||
			math.Float64bits(got.L) != math.Float64bits(want.L) {
			t.Errorf("%s: dominance (HT %v, L %v) != hydrated (HT %v, L %v)",
				name, got.HT, got.L, want.HT, want.L)
		}
	}

	// Quantile over three PPS summaries.
	p3 := s.SummarizePPSExpectedSize(2, inst3, 70)
	v3, _ := mustView(t, p3)
	var anyKey dataset.Key
	for _, h := range p1.AppendKeys(nil) {
		anyKey = h
		break
	}
	wantQ, err := QuantilePPS([]*PPSSummary{p1, p2, p3}, anyKey, 2)
	if err != nil {
		t.Fatalf("QuantilePPS hydrated: %v", err)
	}
	gotQ, err := QuantilePPSReaders([]PPSReader{v1.(PPSReader), v2.(PPSReader), v3.(PPSReader)}, anyKey, 2)
	if err != nil {
		t.Fatalf("QuantilePPSReaders views: %v", err)
	}
	if math.Float64bits(gotQ.HT) != math.Float64bits(wantQ.HT) || gotQ.Sampled != wantQ.Sampled {
		t.Errorf("quantile via views (%v, %d) != hydrated (%v, %d)", gotQ.HT, gotQ.Sampled, wantQ.HT, wantQ.Sampled)
	}

	// Distinct count over three set summaries (uniform p).
	var sets []*SetSummary
	var readers []SetReader
	for i := 0; i < 3; i++ {
		members := make(map[dataset.Key]bool, len(instances[i]))
		for h := range instances[i] {
			members[h] = true
		}
		set := s.SummarizeSet(10+i, members, 0.35)
		sets = append(sets, set)
		sv, _ := mustView(t, set)
		readers = append(readers, sv.(SetReader))
	}
	wantD, err := DistinctCountMulti(sets, nil)
	if err != nil {
		t.Fatalf("DistinctCountMulti hydrated: %v", err)
	}
	gotD, err := DistinctCountMultiReaders(readers, nil)
	if err != nil {
		t.Fatalf("DistinctCountMultiReaders views: %v", err)
	}
	if math.Float64bits(gotD.HT) != math.Float64bits(wantD.HT) ||
		math.Float64bits(gotD.L) != math.Float64bits(wantD.L) ||
		gotD.KeysUsed != wantD.KeysUsed {
		t.Errorf("distinct via views (%v, %v, %d) != hydrated (%v, %v, %d)",
			gotD.HT, gotD.L, gotD.KeysUsed, wantD.HT, wantD.L, wantD.KeysUsed)
	}
}

// TestParseSummaryViewRejectsNonCanonical: every deviation from the
// canonical encoding fails the strict parse — and, where the payload is
// still structurally decodable, the lenient decoder remains the fallback
// arbiter.
func TestParseSummaryViewRejectsNonCanonical(t *testing.T) {
	s := NewSummarizer(0xC0DE)
	good, err := EncodeSummary(s.SummarizePPSExpectedSize(0, dataset.Instance{5: 2, 9: 4, 12: 1}, 10), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSummaryView(good); err != nil {
		t.Fatalf("canonical bytes rejected: %v", err)
	}

	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return f(b)
	}
	cases := map[string][]byte{
		"empty":     {},
		"truncated": good[:len(good)-5],
		"trailing":  append(append([]byte(nil), good...), 0x00),
		"bad magic": mutate(func(b []byte) []byte { b[0] = 0x7B; return b }),
		"future version": mutate(func(b []byte) []byte {
			b[2] = 9
			return b
		}),
		"unknown kind": mutate(func(b []byte) []byte { b[3] = 200; return b }),
		"bad flags":    mutate(func(b []byte) []byte { b[4] = 0x80; return b }),
		"negative tau": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[14:], math.Float64bits(-1))
			return b
		}),
	}
	// Swap the first two entries: keys no longer ascending. Layout:
	// 5 header + 8 salt + 1 instance varint (0) + 8 tau + 1 count = 23.
	cases["descending keys"] = mutate(func(b []byte) []byte {
		e := b[23:]
		var tmp [16]byte
		copy(tmp[:], e[:16])
		copy(e[:16], e[16:32])
		copy(e[16:32], tmp[:])
		return b
	})
	// Non-minimal entry count: rewrite uvarint 3 as the two-byte 0x83 0x00.
	cases["non-minimal uvarint"] = mutate(func(b []byte) []byte {
		out := append([]byte(nil), b[:22]...)
		out = append(out, 0x83, 0x00)
		return append(out, b[23:]...)
	})
	for name, data := range cases {
		if _, err := ParseSummaryView(data); err == nil {
			t.Errorf("%s: ParseSummaryView succeeded", name)
		}
	}

	// The non-canonical-but-valid payloads still hydrate via the lenient
	// decoder — the strict parse narrows acceptance, never the protocol.
	for _, name := range []string{"descending keys", "non-minimal uvarint"} {
		if _, err := DecodeSummary(cases[name]); err != nil {
			t.Errorf("%s: lenient DecodeSummary failed: %v", name, err)
		}
	}
}

// TestParseSummaryViewVarOptThreshold: the varopt parameter validation
// matches the hydrating decoder (0 valid, negative/NaN/+Inf rejected).
func TestParseSummaryViewVarOptThreshold(t *testing.T) {
	s := NewSummarizer(7)
	good, err := EncodeSummary(s.SummarizeVarOpt(0, dataset.Instance{1: 1, 2: 2}, 8), 2)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ParseSummaryView(good)
	if err != nil {
		t.Fatalf("varopt view: %v", err)
	}
	if got := v.(VarOptReader).VarOptTau(); got != 0 {
		t.Fatalf("never-overflowed reservoir: tau %v, want 0", got)
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(b[14:], math.Float64bits(bad))
		if _, err := ParseSummaryView(b); err == nil {
			t.Errorf("varopt threshold %v accepted", bad)
		}
	}
}

// TestV2EntryValuesValidated: a weighted entry whose value is negative,
// infinite or NaN is refused by the strict view parse and by the
// hydrating decoder alike, for every weighted kind; zero stays valid.
// The same entries as v1 JSON (which can only spell the negative ones) are
// refused by every v1 entry point, and DecodeStoredSummary — the store's
// replay decoder — takes all of them in either wire version.
func TestV2EntryValuesValidated(t *testing.T) {
	s := NewSummarizer(21)
	in := dataset.Instance{5: 2, 9: 4, 12: 1}
	for _, sum := range []Summary{
		s.SummarizePPSExpectedSize(0, in, 10),
		s.SummarizeBottomK(1, in, 10, sampling.PPS{}),
		s.SummarizeVarOpt(2, in, 10),
	} {
		good, err := EncodeSummary(sum, 2)
		if err != nil {
			t.Fatal(err)
		}
		// The last 8 bytes are the final entry's value.
		withValue := func(v float64) []byte {
			b := bytes.Clone(good)
			binary.LittleEndian.PutUint64(b[len(b)-8:], math.Float64bits(v))
			return b
		}
		for _, bad := range []float64{-1, -1e-300, math.NaN(), math.Inf(1), math.Inf(-1)} {
			if _, err := ParseSummaryView(withValue(bad)); err == nil {
				t.Errorf("%s: view parse accepted entry value %v", sum.Kind(), bad)
			}
			if _, err := DecodeSummary(withValue(bad)); err == nil {
				t.Errorf("%s: hydrating decoder accepted entry value %v", sum.Kind(), bad)
			}
			if _, err := DecodeSummaryViewFrom(bytes.NewReader(withValue(bad))); err == nil {
				t.Errorf("%s: DecodeSummaryViewFrom accepted entry value %v", sum.Kind(), bad)
			}
			stored, err := DecodeStoredSummary(withValue(bad))
			if err != nil {
				t.Errorf("%s: stored decoder refused entry value %v: %v", sum.Kind(), bad, err)
				continue
			}
			if re, err := EncodeSummary(stored, 2); err != nil || !bytes.Equal(re, withValue(bad)) {
				t.Errorf("%s: stored entry value %v did not round-trip (err %v)", sum.Kind(), bad, err)
			}
			if bad >= 0 || math.IsInf(bad, 0) || math.IsNaN(bad) {
				continue // not expressible in JSON
			}
			v1, err := EncodeSummary(stored, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("core: invalid entry value %v for key 12", bad)
			if _, err := DecodeSummary(v1); err == nil || err.Error() != want {
				t.Errorf("%s: v1 DecodeSummary of entry value %v: %v", sum.Kind(), bad, err)
			}
			if _, _, err := DecodeSummaryFrom(bytes.NewReader(v1)); err == nil || err.Error() != want {
				t.Errorf("%s: v1 DecodeSummaryFrom of entry value %v: %v", sum.Kind(), bad, err)
			}
			if _, err := (jsonCodec{}).DecodeFrom(bytes.NewReader(v1)); err == nil || err.Error() != want {
				t.Errorf("%s: v1 codec DecodeFrom of entry value %v: %v", sum.Kind(), bad, err)
			}
			if _, err := DecodeStoredSummary(v1); err != nil {
				t.Errorf("%s: stored decoder refused v1 entry value %v: %v", sum.Kind(), bad, err)
			}
		}
		if _, err := ParseSummaryView(withValue(0)); err != nil {
			t.Errorf("%s: view parse refused entry value 0: %v", sum.Kind(), err)
		}
		if _, err := DecodeSummary(withValue(0)); err != nil {
			t.Errorf("%s: hydrating decoder refused entry value 0: %v", sum.Kind(), err)
		}
	}
}
