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

// Tests of the one in-memory representation: whatever a summary arrived
// as, it holds the same canonical bytes and answers with the same bits.
// (The TestView… names date from when that representation was one of two;
// they are kept so the suite's history stays comparable.)

// summaryFixtures builds one summary of every kind the wire formats speak,
// including the VarOpt reservoir and edge shapes (empty, unbounded
// bottom-k threshold, never-overflowed VarOpt).
func summaryFixtures(s *Summarizer) []Summary {
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

// mustReencode encodes s in the given wire version and decodes it back.
func mustReencode(t testing.TB, s Summary, version int) (Summary, []byte) {
	t.Helper()
	data, err := EncodeSummary(s, version)
	if err != nil {
		t.Fatalf("EncodeSummary(%s, %d): %v", s.Kind(), version, err)
	}
	dec, err := DecodeSummary(data)
	if err != nil {
		t.Fatalf("DecodeSummary(v%d %s): %v", version, s.Kind(), err)
	}
	return dec, data
}

// entryMap collects a weighted summary's entries into a map.
func entryMap(s interface {
	AppendKeys([]dataset.Key) []dataset.Key
	Lookup(dataset.Key) (float64, bool)
}) map[dataset.Key]float64 {
	out := make(map[dataset.Key]float64)
	for _, h := range s.AppendKeys(nil) {
		out[h], _ = s.Lookup(h)
	}
	return out
}

// TestViewRoundTripRawBytes: a summary is its canonical v2 bytes. Encoding
// a drawn summary, re-encoding its v2 decode and re-encoding its v1 decode
// all yield the same bytes, for every kind; and the v1 encoding is the same
// from each of them.
func TestViewRoundTripRawBytes(t *testing.T) {
	for _, s := range summaryFixtures(NewSummarizer(0xFEED)) {
		viaV2, data := mustReencode(t, s, 2)
		viaV1, js := mustReencode(t, s, 1)
		for name, dec := range map[string]Summary{"v2 → memory": viaV2, "v1 → memory": viaV1} {
			out, err := EncodeSummary(dec, 2)
			if err != nil {
				t.Fatalf("kind %s, %s: re-encode: %v", s.Kind(), name, err)
			}
			if !bytes.Equal(out, data) {
				t.Errorf("kind %s: %s → v2 bytes differ from the drawn summary's", s.Kind(), name)
			}
			out, err = EncodeSummary(dec, 1)
			if err != nil {
				t.Fatalf("kind %s, %s: JSON-encode: %v", s.Kind(), name, err)
			}
			if !bytes.Equal(out, js) {
				t.Errorf("kind %s: %s → v1 bytes differ from the drawn summary's", s.Kind(), name)
			}
		}
		// The encoder hands out a copy: scribbling on it leaves the summary alone.
		out, _ := EncodeSummary(viaV1, 2)
		clear(out)
		if again, _ := EncodeSummary(viaV1, 2); !bytes.Equal(again, data) {
			t.Errorf("kind %s: Encode returned the summary's own bytes", s.Kind())
		}
	}
}

// TestViewSummaryMetadata: a decoded summary reports the kind, size,
// instance and seeder of the summary that was encoded, in both wire
// versions.
func TestViewSummaryMetadata(t *testing.T) {
	for _, s := range summaryFixtures(NewSummarizer(0xABCD)) {
		for version := 1; version <= 2; version++ {
			v, _ := mustReencode(t, s, version)
			if v.Kind() != s.Kind() || v.Size() != s.Size() || v.InstanceID() != s.InstanceID() {
				t.Errorf("v%d decode of %s: metadata mismatch (kind %s size %d instance %d)",
					version, s.Kind(), v.Kind(), v.Size(), v.InstanceID())
			}
			if v.seederOf() != s.seederOf() {
				t.Errorf("v%d decode of %s: seeder mismatch", version, s.Kind())
			}
		}
	}
}

// TestViewSubsetSumBitIdentical: the per-summary estimate off the wire
// entries matches, bit for bit, the one computed over a map of the same
// entries — with nil selectors and with a proper subset selector, drawn or
// decoded from either wire version.
func TestViewSubsetSumBitIdentical(t *testing.T) {
	sel := func(h dataset.Key) bool { return h%3 != 0 }
	for _, s := range summaryFixtures(NewSummarizer(0x5EED)) {
		var ref func(func(dataset.Key) bool) float64
		switch s := s.(type) {
		case *PPSSummary:
			ref = (&refPPS{refWeighted{values: entryMap(s)}, s.PPSTau()}).SubsetSum
		case *BottomKSummary:
			ref = (&refBottomK{refWeighted{values: entryMap(s)}, s.RankFam(), s.RankTau()}).SubsetSum
		case *VarOptSummary:
			adjusted := make(map[dataset.Key]float64, s.Size())
			for i := 0; i < s.Size(); i++ {
				adjusted[dataset.Key(s.weightedKeyAt(i))] = math.Max(s.weightedValueAt(i), s.VarOptTau())
			}
			ref = (&sampling.VarOptSample{Adjusted: adjusted}).SubsetSum
		default:
			continue // set summaries have no SubsetSum
		}
		viaV2, _ := mustReencode(t, s, 2)
		viaV1, _ := mustReencode(t, s, 1)
		for from, sum := range map[string]Summary{"drawn": s, "v2": viaV2, "v1": viaV1} {
			for name, f := range map[string]func(dataset.Key) bool{"all": nil, "subset": sel} {
				got := sum.(interface {
					SubsetSum(func(dataset.Key) bool) float64
				}).SubsetSum(f)
				if want := ref(f); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("kind %s (%s), sel %s: SubsetSum %v != map-backed %v", s.Kind(), from, name, got, want)
				}
			}
		}
	}
}

// TestViewLookupMatchesHydrated: binary-search lookups over wire entries
// agree with map lookups for present and absent keys.
func TestViewLookupMatchesHydrated(t *testing.T) {
	s := NewSummarizer(0xD0)
	m := simdata.Generate(simdata.ScaledTraffic(150))
	want := sampling.PoissonPPS(m.Instances[0], 3, s.seedFunc(0)).Values
	pps := s.SummarizePPS(0, m.Instances[0], 3)
	if pps.PPSTau() != 3 || pps.Size() != len(want) || pps.Size() == 0 {
		t.Fatalf("summary tau %v size %d; sample size %d", pps.PPSTau(), pps.Size(), len(want))
	}
	probe := append(pps.AppendKeys(nil), 0, 1, math.MaxUint64/2, math.MaxUint64)
	for _, h := range probe {
		gv, gok := pps.Lookup(h)
		wv, wok := want[h]
		if gok != wok || gv != wv {
			t.Errorf("key %d: Lookup (%v,%v) != map (%v,%v)", h, gv, gok, wv, wok)
		}
	}

	members := make(map[dataset.Key]bool, len(m.Instances[1]))
	for h := range m.Instances[1] {
		members[h] = true
	}
	set := s.SummarizeSet(1, members, 0.3)
	if set.SetP() != 0.3 || set.Size() == 0 {
		t.Fatalf("set summary p %v size %d", set.SetP(), set.Size())
	}
	keys := set.AppendKeys(nil)
	for i := range m.Instances[1] {
		keys = append(keys, i)
	}
	for _, h := range append(keys, 0, 42, math.MaxUint64) {
		if want := members[h] && s.seeder.Seed(1, uint64(h)) < 0.3; set.Contains(h) != want {
			t.Errorf("key %d: Contains %v, want %v", h, set.Contains(h), want)
		}
	}
}

// TestViewQueriesBitIdentical: the multi-summary queries answer with
// bit-identical floats whether the inputs were drawn in-process, decoded
// from v2, decoded from v1, or a mix.
func TestViewQueriesBitIdentical(t *testing.T) {
	s := NewSummarizer(0xBEEF)
	m := simdata.Generate(simdata.ScaledTraffic(200))
	// A third instance (the generator produces two): shifted, rescaled keys.
	inst3 := make(dataset.Instance, len(m.Instances[0]))
	for h, v := range m.Instances[0] {
		inst3[h+1] = v * 1.5
	}
	instances := []dataset.Instance{m.Instances[0], m.Instances[1], inst3}

	// drawn, all-v2, all-v1, and alternating lists of the same summaries.
	var pps [4][]PPSReader
	var sets [4][]SetReader
	for i, in := range instances {
		members := make(map[dataset.Key]bool, len(in))
		for h := range in {
			members[h] = true
		}
		p, set := s.SummarizePPSExpectedSize(i, in, 70), s.SummarizeSet(10+i, members, 0.35)
		p2, _ := mustReencode(t, p, 2)
		p1, _ := mustReencode(t, p, 1)
		s2, _ := mustReencode(t, set, 2)
		s1, _ := mustReencode(t, set, 1)
		pv := [3]PPSReader{p, p2.(PPSReader), p1.(PPSReader)}
		sv := [3]SetReader{set, s2.(SetReader), s1.(SetReader)}
		for j := 0; j < 3; j++ {
			pps[j], sets[j] = append(pps[j], pv[j]), append(sets[j], sv[j])
		}
		pps[3], sets[3] = append(pps[3], pv[i%3]), append(sets[3], sv[(i+1)%3])
	}
	anyKey := pps[0][0].AppendKeys(nil)[0]

	wantM, err1 := MaxDominanceReaders(pps[0][0], pps[0][1], nil)
	wantQ, err2 := QuantilePPSReaders(pps[0], anyKey, 2)
	wantD, err3 := DistinctCountMultiReaders(sets[0], nil)
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatal(err1, err2, err3)
	}
	for j, name := range []string{"drawn", "v2", "v1", "mixed"} {
		gotM, err1 := MaxDominanceReaders(pps[j][0], pps[j][1], nil)
		gotQ, err2 := QuantilePPSReaders(pps[j], anyKey, 2)
		gotD, err3 := DistinctCountMultiReaders(sets[j], nil)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatal(name, err1, err2, err3)
		}
		if !sameBits(gotM.HT, wantM.HT) || !sameBits(gotM.L, wantM.L) || gotM.KeysUsed != wantM.KeysUsed {
			t.Errorf("%s: dominance %+v != drawn %+v", name, gotM, wantM)
		}
		if !sameBits(gotQ.HT, wantQ.HT) || gotQ.Sampled != wantQ.Sampled {
			t.Errorf("%s: quantile %+v != drawn %+v", name, gotQ, wantQ)
		}
		if !sameBits(gotD.HT, wantD.HT) || !sameBits(gotD.L, wantD.L) || gotD.KeysUsed != wantD.KeysUsed {
			t.Errorf("%s: distinct %+v != drawn %+v", name, gotD, wantD)
		}
	}
}

// TestDecodeV2Canonicalises: a v2 body that deviates from the canonical
// encoding only in entry order or varint padding is accepted and held as
// the canonical bytes; one that is not a valid message is refused with the
// decoder's error text, which names the first defect in wire order.
func TestDecodeV2Canonicalises(t *testing.T) {
	s := NewSummarizer(0xC0DE)
	good, err := EncodeSummary(s.SummarizePPSExpectedSize(0, dataset.Instance{5: 2, 9: 4, 12: 1}, 10), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Layout: 5 fixed + 8 salt + 1 instance varint (0) + 8 tau + 1 count = 23,
	// then three 16-byte entries.
	const head = 23
	mutate := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(good)) }
	swapFirstTwo := func(b []byte) []byte {
		e := b[head:]
		var tmp [16]byte
		copy(tmp[:], e[:16])
		copy(e[:16], e[16:32])
		copy(e[16:32], tmp[:])
		return b
	}
	// withCount replaces the one-byte entry count.
	withCount := func(b []byte, count ...byte) []byte {
		return append(append(bytes.Clone(b[:head-1]), count...), b[head:]...)
	}

	for name, data := range map[string][]byte{
		"canonical":            good,
		"descending keys":      mutate(swapFirstTwo),
		"padded count":         withCount(good, 0x83, 0x00),
		"padded instance":      append(append(bytes.Clone(good[:13]), 0x80, 0x00), good[14:]...),
		"padded and unordered": withCount(mutate(swapFirstTwo), 0x83, 0x80, 0x00),
	} {
		for entry, decode := range map[string]func([]byte) (Summary, error){
			"DecodeSummary":         DecodeSummary,
			"DecodeStoredSummary":   DecodeStoredSummary,
			"DecodeSummaryViewFrom": func(b []byte) (Summary, error) { return DecodeSummaryViewFrom(bytes.NewReader(b)) },
			"DecodeSummaryFrom":     func(b []byte) (s Summary, err error) { s, _, err = DecodeSummaryFrom(bytes.NewReader(b)); return },
		} {
			sum, err := decode(bytes.Clone(data))
			if err != nil {
				t.Errorf("%s: %s refused it: %v", name, entry, err)
				continue
			}
			if out, _ := EncodeSummary(sum, 2); !bytes.Equal(out, good) {
				t.Errorf("%s: %s holds bytes other than the canonical encoding", name, entry)
			}
			if v, ok := sum.(PPSReader).Lookup(9); !ok || v != 4 {
				t.Errorf("%s: %s: Lookup(9) = %v, %v", name, entry, v, ok)
			}
		}
	}

	dupFirst := append(withCount(good, 4), good[head:head+16]...)
	negValue := mutate(func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[head+8:], math.Float64bits(-1))
		return b
	})
	for name, c := range map[string]struct {
		data []byte
		want string
	}{
		"empty":          {nil, "core: decoding summary: unexpected end of JSON input"},
		"magic only":     {good[:2], "core: decoding v2 summary: unexpected EOF"},
		"truncated":      {good[:len(good)-5], "core: decoding v2 summary: unexpected EOF"},
		"trailing":       {append(bytes.Clone(good), 0x00), "core: decoding v2 summary: trailing data after entries"},
		"future version": {mutate(func(b []byte) []byte { b[2] = 9; return b }), "core: binary summary version 9 (supported: [1 2]): core: unknown summary wire-format version"},
		"unknown kind":   {mutate(func(b []byte) []byte { b[3] = 200; return b }), "core: unknown v2 summary kind tag 200"},
		"bad flags":      {mutate(func(b []byte) []byte { b[4] = 0x80; return b }), "core: decoding v2 summary: undefined flag bits 0x80"},
		"negative tau": {mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[14:], math.Float64bits(-1))
			return b
		}), "core: invalid tau -1"},
		"count overflows":       {withCount(good, bytes.Repeat([]byte{0xFF}, 10)...), "core: decoding v2 summary: binary: varint overflows a 64-bit integer"},
		"count cut short":       {append(bytes.Clone(good[:head-1]), 0x83), "core: decoding v2 summary: unexpected EOF"},
		"count beyond the body": {withCount(good, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10), "core: decoding v2 summary: unexpected EOF"},
		"duplicate key":         {dupFirst, "core: decoding v2 summary: 1 duplicate keys"},
		"negative value":        {negValue, "core: invalid entry value -1 for key 5"},
		// Wire order decides which defect is named: the bad value sits
		// before the shortfall, and both before the duplicate count.
		"negative value, short": {negValue[:len(negValue)-1], "core: invalid entry value -1 for key 5"},
		"duplicate key, short":  {dupFirst[:len(dupFirst)-1], "core: decoding v2 summary: unexpected EOF"},
	} {
		if _, err := DecodeSummary(c.data); err == nil || err.Error() != c.want {
			t.Errorf("%s: DecodeSummary: %v; want %s", name, err, c.want)
		}
	}
	// Only a decoder told to expect v2 names a bad magic; the sniffing ones
	// take such bytes for JSON.
	badMagic := mutate(func(b []byte) []byte { b[1] = 0x7B; return b })
	if _, err := DecodeSummaryViewFrom(bytes.NewReader(badMagic)); err == nil || err.Error() != "core: decoding v2 summary: bad magic 0xcb 0x7b" {
		t.Errorf("bad magic: DecodeSummaryViewFrom: %v", err)
	}
	// A stream carries one message: the same refusals, with the stream
	// decoders' text for the one defect they name differently.
	for entry, decode := range map[string]func([]byte) error{
		"DecodeSummaryViewFrom": func(b []byte) error { _, err := DecodeSummaryViewFrom(bytes.NewReader(b)); return err },
		"DecodeSummaryFrom":     func(b []byte) error { _, _, err := DecodeSummaryFrom(bytes.NewReader(b)); return err },
	} {
		if err := decode(append(bytes.Clone(good), good...)); err == nil || err.Error() != "core: trailing data after v2 summary" {
			t.Errorf("%s of two concatenated messages: %v", entry, err)
		}
		if err := decode(dupFirst); err == nil || err.Error() != "core: decoding v2 summary: 1 duplicate keys" {
			t.Errorf("%s of a duplicate key: %v", entry, err)
		}
	}
}

// TestV2VarOptThreshold: the varopt parameter validation (0 valid,
// negative/NaN/+Inf rejected).
func TestV2VarOptThreshold(t *testing.T) {
	s := NewSummarizer(7)
	good, err := EncodeSummary(s.SummarizeVarOpt(0, dataset.Instance{1: 1, 2: 2}, 8), 2)
	if err != nil {
		t.Fatal(err)
	}
	v, err := DecodeSummary(good)
	if err != nil {
		t.Fatalf("varopt summary: %v", err)
	}
	if got := v.(varOptReader).VarOptTau(); got != 0 {
		t.Fatalf("never-overflowed reservoir: tau %v, want 0", got)
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		b := bytes.Clone(good)
		binary.LittleEndian.PutUint64(b[14:], math.Float64bits(bad))
		want := fmt.Sprintf("core: invalid varopt threshold %v", bad)
		if _, err := DecodeSummary(b); err == nil || err.Error() != want {
			t.Errorf("varopt threshold %v: %v", bad, err)
		}
	}
}

// TestV2EntryValuesValidated: a weighted entry whose value is negative,
// infinite or NaN is refused by every ingress decoder, for every weighted
// kind; zero stays valid. The same entries as v1 JSON (which can only spell
// the negative ones) are refused by every v1 entry point, and
// DecodeStoredSummary — the store's replay decoder — takes all of them in
// either wire version.
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
			want := fmt.Sprintf("core: invalid entry value %v for key 12", bad)
			if _, err := DecodeSummary(withValue(bad)); err == nil || err.Error() != want {
				t.Errorf("%s: DecodeSummary of entry value %v: %v", sum.Kind(), bad, err)
			}
			if _, err := DecodeSummaryViewFrom(bytes.NewReader(withValue(bad))); err == nil || err.Error() != want {
				t.Errorf("%s: DecodeSummaryViewFrom of entry value %v: %v", sum.Kind(), bad, err)
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
			if _, err := DecodeSummary(v1); err == nil || err.Error() != want {
				t.Errorf("%s: v1 DecodeSummary of entry value %v: %v", sum.Kind(), bad, err)
			}
			if _, _, err := DecodeSummaryFrom(bytes.NewReader(v1)); err == nil || err.Error() != want {
				t.Errorf("%s: v1 DecodeSummaryFrom of entry value %v: %v", sum.Kind(), bad, err)
			}
			if _, err := DecodeSummaryVersionFrom(bytes.NewReader(v1), 1); err == nil || err.Error() != want {
				t.Errorf("%s: v1 DecodeSummaryVersionFrom of entry value %v: %v", sum.Kind(), bad, err)
			}
			if _, err := DecodeStoredSummary(v1); err != nil {
				t.Errorf("%s: stored decoder refused v1 entry value %v: %v", sum.Kind(), bad, err)
			}
		}
		if _, err := DecodeSummary(withValue(0)); err != nil {
			t.Errorf("%s: decoder refused entry value 0: %v", sum.Kind(), err)
		}
	}
}
