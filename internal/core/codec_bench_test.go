package core

import (
	"fmt"
	"testing"
)

// Codec benchmarks over the shared 1M-entry bottom-k summary (64-bit
// mixed keys, full-precision weights — the regime the wire travels in
// production). Run with:
//
//	go test -run '^$' -bench 'EncodeSummary|DecodeSummary' ./internal/core
//
// The wire-bytes metric is the payload size, the headline v1-vs-v2
// comparison; ns/op contrasts text marshaling against the fixed-width
// layout.

func BenchmarkEncodeSummary(b *testing.B) {
	sum := millionEntryBottomK(b)
	for _, version := range []int{1, 2} {
		b.Run(fmt.Sprintf("v%d/entries=1M", version), func(b *testing.B) {
			var encoded int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data, err := EncodeSummary(sum, version)
				if err != nil {
					b.Fatal(err)
				}
				encoded = len(data)
			}
			b.ReportMetric(float64(encoded), "wire-bytes")
			b.ReportMetric(float64(encoded)/float64(sum.Size()), "bytes/entry")
		})
	}
}

func BenchmarkDecodeSummary(b *testing.B) {
	sum := millionEntryBottomK(b)
	for _, version := range []int{1, 2} {
		data, err := EncodeSummary(sum, version)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("v%d/entries=1M", version), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dec, err := DecodeSummary(data)
				if err != nil {
					b.Fatal(err)
				}
				if dec.Size() != sum.Size() {
					b.Fatalf("decoded %d entries, want %d", dec.Size(), sum.Size())
				}
			}
			b.ReportMetric(float64(len(data)), "wire-bytes")
		})
	}
}
