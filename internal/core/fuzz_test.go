package core

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/dataset"
)

// Fuzz targets for the summary wire format. Two properties:
//
//  1. Round trip: decode(encode(s)) reproduces s exactly — keys, values,
//     threshold, salt.
//  2. Robustness: decoding arbitrary (corrupted) bytes returns an error
//     instead of panicking, and anything that does decode re-encodes to a
//     summary that decodes identically (the format is self-consistent).
//
// `go test` runs these over the seed corpus; `go test -fuzz=FuzzX` explores.

// buildPPS constructs a PPS summary deterministically from fuzz inputs:
// every byte of blob becomes one sampled (key, value) pair.
func buildPPS(salt uint64, instance int, tau float64, blob []byte) *PPSSummary {
	s := NewSummarizer(salt)
	in := make(dataset.Instance, len(blob))
	for i, b := range blob {
		in[dataset.Key(uint64(i)<<8|uint64(b))] = 1 + float64(b)
	}
	return s.SummarizePPS(instance, in, tau)
}

func FuzzPPSSummaryRoundTrip(f *testing.F) {
	f.Add(uint64(1), 0, 10.0, []byte{1, 2, 3})
	f.Add(uint64(42), 3, 0.5, []byte{})
	f.Add(uint64(7), 100, 1e6, []byte{255, 0, 128, 7})
	f.Fuzz(func(t *testing.T, salt uint64, instance int, tau float64, blob []byte) {
		if !(tau > 0) || math.IsInf(tau, 1) || len(blob) > 1024 {
			t.Skip()
		}
		orig := buildPPS(salt, instance, tau, blob)
		data, err := json.Marshal(orig)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := DecodePPSSummary(data)
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		sameSummary(t, "v1 round trip", got, orig)
	})
}

func FuzzDecodePPSSummary(f *testing.F) {
	valid, _ := json.Marshal(buildPPS(3, 1, 25, []byte{9, 9, 4}))
	f.Add(valid)
	f.Add([]byte(`{"version":1,"kind":"pps","tau":-1}`))
	f.Add([]byte(`{"version":99,"kind":"pps","tau":1}`))
	f.Add([]byte(`{"kind":"set"}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"version":1,"kind":"pps","tau":1,"values":{"1":"NaN"}}`))
	f.Add([]byte(`{"version":1,"kind":"pps","tau":1,"shared":true}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodePPSSummary(data) // must never panic
		if err != nil {
			return
		}
		// Whatever decodes must re-encode and decode to the same summary.
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("re-encode of decoded summary: %v", err)
		}
		s2, err := DecodePPSSummary(out)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		sameSummary(t, "re-decoded summary", s2, s)
		// The decoded summary must be usable, not just inspectable.
		_ = s2.SubsetSum(nil)
	})
}

func FuzzSetSummaryRoundTrip(f *testing.F) {
	f.Add(uint64(1), 0, 0.5, []byte{1, 2, 3})
	f.Add(uint64(11), 2, 1.0, []byte{0})
	f.Fuzz(func(t *testing.T, salt uint64, instance int, p float64, blob []byte) {
		if !(p > 0 && p <= 1) || len(blob) > 1024 {
			t.Skip()
		}
		s := NewSummarizer(salt)
		members := make(map[dataset.Key]bool, len(blob))
		for i, b := range blob {
			members[dataset.Key(uint64(i)<<8|uint64(b))] = true
		}
		orig := s.SummarizeSet(instance, members, p)
		data, err := json.Marshal(orig)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := DecodeSetSummary(data)
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		sameSummary(t, "v1 round trip", got, orig)
	})
}

func FuzzDecodeSetSummary(f *testing.F) {
	f.Add([]byte(`{"version":1,"kind":"set","p":0.5,"members":[1,2]}`))
	f.Add([]byte(`{"version":1,"kind":"set","p":2}`))
	f.Add([]byte(`{"version":1,"kind":"pps","p":0.5}`))
	f.Add([]byte(`[]`))
	f.Add([]byte{0xff, 0xfe})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSetSummary(data) // must never panic
		if err != nil {
			return
		}
		if !(s.SetP() > 0 && s.SetP() <= 1) {
			t.Fatalf("decoded invalid P %v", s.SetP())
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		s2, err := DecodeSetSummary(out)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		sameSummary(t, "re-decoded summary", s2, s)
	})
}
