package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sampling"
)

// FuzzDecodeSummaryV2 attacks the binary decoder: hostile headers,
// truncated entry streams, flipped flag bits, oversized varint counts.
// Three properties:
//
//  1. No panics — every input returns a summary or an error.
//  2. No over-allocation — a payload claiming billions of entries fails
//     after the bytes actually present; the count itself allocates nothing.
//  3. Self-consistency — whatever decodes is held as canonical bytes
//     (strictly ascending keys, and a fixed point of decode → encode), and
//     decodes again to the same summary and the same query bits.
func FuzzDecodeSummaryV2(f *testing.F) {
	// Seeds: one valid payload per kind, then targeted corruptions.
	s := NewSummarizer(99)
	in := dataset.Instance{}
	for i := 1; i <= 64; i++ {
		in[dataset.Key(i*7919)] = float64(i)
	}
	members := map[dataset.Key]bool{}
	for h := range in {
		members[h] = true
	}
	for _, sum := range []Summary{
		s.SummarizePPS(0, in, 8),
		s.SummarizeSet(1, members, 0.5),
		s.SummarizeBottomK(2, in, 16, sampling.PPS{}),
		s.SummarizeBottomK(3, in, 16, sampling.EXP{}),
	} {
		data, err := EncodeSummary(sum, 2)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2]) // truncated mid-entry
		f.Add(append(data, 0x00)) // trailing byte
		corrupted := bytes.Clone(data)
		corrupted[4] = 0xFF // undefined flag bits
		f.Add(corrupted)
	}
	f.Add([]byte{})
	f.Add([]byte{v2Magic0})
	f.Add([]byte{v2Magic0, v2Magic1})
	f.Add([]byte{v2Magic0, v2Magic1, 0x07, 0x01, 0x00}) // future version
	f.Add([]byte{v2Magic0, v2Magic1, 0x02, 0x09, 0x00}) // unknown kind
	// Kind tag 4, which no kind uses, on an otherwise valid empty pps message.
	tag4 := []byte{v2Magic0, v2Magic1, 0x02, 0x04, 0x00}
	tag4 = binary.LittleEndian.AppendUint64(tag4, 42)                    // salt
	tag4 = append(tag4, 0x00)                                            // instance 0
	tag4 = binary.LittleEndian.AppendUint64(tag4, math.Float64bits(2.5)) // tau
	f.Add(append(tag4, 0x00))                                            // no entries
	f.Add([]byte{0x00, 0x53, 0x02, 0x01, 0x00})                          // bad magic
	// Oversized varint count: a valid pps header followed by a 2^63 claim.
	hostile := []byte{v2Magic0, v2Magic1, 0x02, v2KindPPS, 0x00}
	hostile = binary.LittleEndian.AppendUint64(hostile, 42)                    // salt
	hostile = append(hostile, 0x00)                                            // instance 0
	hostile = binary.LittleEndian.AppendUint64(hostile, math.Float64bits(2.5)) // tau
	hostile = binary.AppendUvarint(hostile, 1<<63)                             // entry count
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		sum, err := DecodeSummary(data) // must never panic, never OOM
		if err != nil {
			return
		}
		if _, ok := SniffWireVersion(data); !ok {
			t.Fatal("decoded summary from bytes with no sniffable version")
		}
		// Whatever decodes must re-encode canonically and round-trip.
		out, err := EncodeSummary(sum, 2)
		if err != nil {
			t.Fatalf("re-encode of decoded summary: %v", err)
		}
		sum2, err := DecodeSummary(out)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if sum2.Kind() != sum.Kind() || sum2.InstanceID() != sum.InstanceID() || sum2.Size() != sum.Size() {
			t.Fatal("re-decoded summary differs")
		}
		if SummarySeeder(sum2) != SummarySeeder(sum) {
			t.Fatal("re-decoded seeder differs")
		}
		if out2, _ := EncodeSummary(sum2, 2); !bytes.Equal(out2, out) {
			t.Fatal("the encoding of a decoded summary is not a fixed point of decode → encode")
		}
		if keyed, ok := sum.(interface {
			AppendKeys([]dataset.Key) []dataset.Key
		}); ok {
			keys := keyed.AppendKeys(nil)
			for i := 1; i < len(keys); i++ {
				if keys[i-1] >= keys[i] {
					t.Fatalf("decoded keys not strictly ascending at %d", i)
				}
			}
		}
		// The decoded summary must be usable, not just inspectable, and
		// usable identically on both sides of the round trip.
		var bits, bits2 float64
		switch v := sum.(type) {
		case *PPSSummary:
			bits, bits2 = v.SubsetSum(nil), sum2.(*PPSSummary).SubsetSum(nil)
		case *bottomKSummary:
			bits, bits2 = v.SubsetSum(nil), sum2.(*bottomKSummary).SubsetSum(nil)
		case *SetSummary:
			bits, bits2 = float64(v.Size())/v.SetP(), float64(sum2.(*SetSummary).Size())/sum2.(*SetSummary).SetP()
		}
		if math.Float64bits(bits) != math.Float64bits(bits2) {
			t.Fatalf("query bits changed across the round trip: %v vs %v", bits, bits2)
		}
	})
}
