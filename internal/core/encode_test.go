package core

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/simdata"
)

// TestPPSSummaryRoundTrip: a decoded summary combines with a live one and
// produces identical estimates.
func TestPPSSummaryRoundTrip(t *testing.T) {
	m := simdata.Generate(simdata.ScaledTraffic(100))
	s := NewSummarizer(42)
	sum1 := s.SummarizePPSExpectedSize(0, m.Instances[0], 50)
	sum2 := s.SummarizePPSExpectedSize(1, m.Instances[1], 50)
	want, err := MaxDominanceReaders(sum1, sum2, nil)
	if err != nil {
		t.Fatal(err)
	}
	data1, err := json.Marshal(sum1)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := json.Marshal(sum2)
	if err != nil {
		t.Fatal(err)
	}
	dec1, err := DecodePPSSummary(data1)
	if err != nil {
		t.Fatal(err)
	}
	dec2, err := DecodePPSSummary(data2)
	if err != nil {
		t.Fatal(err)
	}
	if dec1.Size() != sum1.Size() || dec1.PPSTau() != sum1.PPSTau() || dec1.InstanceID() != 0 {
		t.Fatalf("decoded summary mismatch: len %d vs %d", dec1.Size(), sum1.Size())
	}
	got, err := MaxDominanceReaders(dec1, dec2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Map iteration order varies, so the per-key sums may differ in float
	// rounding; the estimates themselves must agree.
	if math.Abs(got.HT-want.HT) > 1e-9*want.HT || math.Abs(got.L-want.L) > 1e-9*want.L {
		t.Errorf("decoded estimates (%v, %v) differ from live (%v, %v)", got.HT, got.L, want.HT, want.L)
	}
	// Subset sums survive too.
	if a, b := dec1.SubsetSum(nil), sum1.SubsetSum(nil); math.Abs(a-b) > 1e-9 {
		t.Errorf("subset sum changed across round trip: %v vs %v", a, b)
	}
}

func TestSetSummaryRoundTrip(t *testing.T) {
	logs := simdata.RequestLog(2000, 2, 0.2, 9)
	s := NewSummarizer(7)
	s1 := s.SummarizeSet(0, logs[0], 0.3)
	s2 := s.SummarizeSet(1, logs[1], 0.3)
	want, err := DistinctCountReaders(s1, s2, nil)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := json.Marshal(s1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := json.Marshal(s2)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := DecodeSetSummary(d1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := DecodeSetSummary(d2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DistinctCountReaders(r1, r2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.HT != want.HT || got.L != want.L || got.Counts != want.Counts {
		t.Errorf("decoded distinct estimate differs: %+v vs %+v", got, want)
	}
}

// TestDecodeRejectsGarbage covers the validation paths.
func TestDecodeRejectsGarbage(t *testing.T) {
	cases := []string{
		`{`,
		`{"version":1,"kind":"set","tau":2}`,  // wrong kind for PPS
		`{"version":2,"kind":"pps","tau":2}`,  // bad version
		`{"version":1,"kind":"pps","tau":-1}`, // bad tau
	}
	for _, c := range cases {
		if _, err := DecodePPSSummary([]byte(c)); err == nil {
			t.Errorf("DecodePPSSummary accepted %q", c)
		}
	}
	setCases := []string{
		`{`,
		`{"version":1,"kind":"pps","p":0.5}`, // wrong kind
		`{"version":9,"kind":"set","p":0.5}`, // bad version
		`{"version":1,"kind":"set","p":0}`,   // bad p
		`{"version":1,"kind":"set","p":2}`,   // bad p
	}
	for _, c := range setCases {
		if _, err := DecodeSetSummary([]byte(c)); err == nil {
			t.Errorf("DecodeSetSummary accepted %q", c)
		}
	}
}

// TestCrossSaltDecodedSummariesRejected: summaries serialized under
// different salts must not silently combine.
func TestCrossSaltDecodedSummariesRejected(t *testing.T) {
	in := dataset.FigureFive().Instances[0]
	a, _ := json.Marshal(NewSummarizer(1).SummarizePPS(0, in, 10))
	b, _ := json.Marshal(NewSummarizer(2).SummarizePPS(1, in, 10))
	da, err := DecodePPSSummary(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := DecodePPSSummary(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MaxDominanceReaders(da, db, nil); err == nil {
		t.Error("cross-salt summaries combined without error")
	}
	if Combinable(da, db) {
		t.Error("Combinable true for different salts")
	}
	da2, _ := DecodePPSSummary(a)
	if !Combinable(da, da2) {
		t.Error("Combinable false for same salt")
	}
}

// TestEmptySummaryRoundTrip: an empty sample survives serialization.
func TestEmptySummaryRoundTrip(t *testing.T) {
	s := NewSummarizer(3)
	empty := s.SummarizePPS(0, dataset.Instance{}, 10)
	data, err := json.Marshal(empty)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodePPSSummary(data)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Size() != 0 {
		t.Errorf("decoded empty summary has %d keys", dec.Size())
	}
	if got := dec.SubsetSum(nil); got != 0 {
		t.Errorf("empty subset sum %v", got)
	}
}
