package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sampling"
	"repro/internal/simdata"
)

// TestDecodeUnknownVersion: every decoder rejects a future wire version
// with the typed ErrUnknownVersion, the hook version negotiation hangs on.
func TestDecodeUnknownVersion(t *testing.T) {
	cases := map[string]func([]byte) error{
		"pps":     func(b []byte) error { _, err := DecodePPSSummary(b); return err },
		"set":     func(b []byte) error { _, err := DecodeSetSummary(b); return err },
		"bottomk": func(b []byte) error { _, err := DecodeSummary(b); return err },
	}
	for kind, decode := range cases {
		body := fmt.Sprintf(`{"version":9,"kind":%q,"instance":0,"salt":1,"tau":2,"p":0.5,"k":3,"family":"pps"}`, kind)
		err := decode([]byte(body))
		if err == nil {
			t.Fatalf("%s: decoding version 9 succeeded", kind)
		}
		if !errors.Is(err, ErrUnknownVersion) {
			t.Errorf("%s: error %v is not ErrUnknownVersion", kind, err)
		}
		// The generic dispatcher must surface the same typed error.
		if _, err := DecodeSummary([]byte(body)); !errors.Is(err, ErrUnknownVersion) {
			t.Errorf("%s: DecodeSummary error %v is not ErrUnknownVersion", kind, err)
		}
	}
	// Current-version summaries must not trip the check.
	s := NewSummarizer(7)
	data, err := json.Marshal(s.SummarizeSet(0, map[dataset.Key]bool{1: true}, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSetSummary(data); err != nil {
		t.Errorf("decoding current version: %v", err)
	}
}

// TestDecodeSummaryDispatch: the kind-sniffing decoder returns the right
// concrete type for each wire kind and rejects unknown kinds.
func TestDecodeSummaryDispatch(t *testing.T) {
	m := simdata.Generate(simdata.ScaledTraffic(100))
	s := NewSummarizer(42)
	sums := []Summary{
		s.SummarizePPSExpectedSize(0, m.Instances[0], 50),
		s.SummarizeSet(1, map[dataset.Key]bool{1: true, 2: true}, 0.5),
		s.SummarizeBottomK(2, m.Instances[1], 30, sampling.PPS{}),
	}
	for _, want := range sums {
		data, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeSummary(data)
		if err != nil {
			t.Fatalf("%s: %v", want.Kind(), err)
		}
		if got.Kind() != want.Kind() || got.InstanceID() != want.InstanceID() || got.Size() != want.Size() {
			t.Errorf("dispatch mismatch: got (%s, %d, %d), want (%s, %d, %d)",
				got.Kind(), got.InstanceID(), got.Size(), want.Kind(), want.InstanceID(), want.Size())
		}
		if SummarySeeder(got) != SummarySeeder(want) {
			t.Errorf("%s: seeder not preserved", want.Kind())
		}
	}
	if _, err := DecodeSummary([]byte(`{"version":1,"kind":"zipf"}`)); err == nil {
		t.Error("unknown kind decoded successfully")
	}
	if _, err := DecodeSummary([]byte(`{"version":1}`)); err == nil {
		t.Error("missing kind decoded successfully")
	}
}

// TestBottomKSummaryRoundTrip: the bottom-k wire format preserves the
// sample, threshold (including the unbounded case), rank family, and
// subset-sum estimates exactly.
func TestBottomKSummaryRoundTrip(t *testing.T) {
	m := simdata.Generate(simdata.ScaledTraffic(100))
	s := NewSummarizer(42)
	for _, fam := range []sampling.RankFamily{sampling.PPS{}, sampling.EXP{}} {
		sum := s.SummarizeBottomK(0, m.Instances[0], 40, fam)
		data, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		dec := decodeBottomK(t, data)
		if dec.RankFam() != fam || dec.RankTau() != sum.RankTau() {
			t.Errorf("%s: family %s, tau %v != %v", fam.Name(), dec.RankFam().Name(), dec.RankTau(), sum.RankTau())
		}
		sameSummary(t, fam.Name(), dec, sum)
		if dec.SubsetSum(nil) != sum.SubsetSum(nil) {
			t.Errorf("%s: subset sum drifted through the wire", fam.Name())
		}
	}
	// Unbounded threshold: fewer keys than k.
	tiny := dataset.Instance{1: 5, 2: 3}
	sum := s.SummarizeBottomK(0, tiny, 10, sampling.PPS{})
	if !math.IsInf(sum.RankTau(), 1) {
		t.Fatalf("expected unbounded threshold, got %v", sum.RankTau())
	}
	data, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	dec := decodeBottomK(t, data)
	if !math.IsInf(dec.RankTau(), 1) {
		t.Errorf("unbounded threshold decoded as %v", dec.RankTau())
	}
	sameSummary(t, "unbounded sample", dec, sum)
}

// decodeBottomK decodes data with DecodeSummary and asserts a bottom-k
// summary came out.
func decodeBottomK(t *testing.T, data []byte) *bottomKSummary {
	t.Helper()
	s, err := DecodeSummary(data)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := s.(*bottomKSummary)
	if !ok {
		t.Fatalf("decoded a %s summary, want bottomk", s.Kind())
	}
	return b
}

// TestSetStreamMatchesBatch: streaming set summarization is bit-identical
// to the batch path — membership is a pure function of the seed.
func TestSetStreamMatchesBatch(t *testing.T) {
	s := NewSummarizer(9)
	members := map[dataset.Key]bool{}
	for i := 1; i <= 500; i++ {
		members[dataset.Key(i*7)] = true
	}
	want := s.SummarizeSet(3, members, 0.4)
	st := s.StreamSet(3, 0.4)
	for h := range members {
		st.Push(h)
	}
	got := st.Close()
	sameSummary(t, "stream summary", got, want)
	// A member pushed twice counts once.
	st = s.StreamSet(3, 0.4)
	for pass := 0; pass < 2; pass++ {
		for h := range members {
			st.Push(h)
		}
	}
	sameSummary(t, "stream summary of repeated pushes", st.Close(), want)
}
