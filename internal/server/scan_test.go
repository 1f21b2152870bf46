package server

import (
	"bytes"
	"strconv"
	"testing"

	"repro/internal/dataset"
)

// scanBody renders n pairs with distinct keys (an affine walk over 2^40)
// and two-decimal values, one per line, in the given ingest format — the
// shape bench/summaryload's ingest_raw workload posts.
func scanBody(format string, n int) []byte {
	out := make([]byte, 0, n*36)
	for i := 0; i < n; i++ {
		key := (uint64(i)*0x9e3779b97f + 0x5bd1e995) & (1<<40 - 1)
		value := float64(100+i%99991) / 100
		if format == "csv" {
			out = strconv.AppendUint(out, key, 10)
			out = append(out, ',')
			out = strconv.AppendFloat(out, value, 'f', 2, 64)
			out = append(out, '\n')
			continue
		}
		out = append(out, `{"key":`...)
		out = strconv.AppendUint(out, key, 10)
		out = append(out, `,"value":`...)
		out = strconv.AppendFloat(out, value, 'f', 2, 64)
		out = append(out, "}\n"...)
	}
	return out
}

// TestScanPairsAllocsIndependentOfPairs pins the scanners' zero
// allocations per pair: a body a hundred times larger may cost only the
// extra doublings of the repeated-key table, never a term in its pairs.
func TestScanPairsAllocsIndependentOfPairs(t *testing.T) {
	const small, large = 1000, 100_000
	// 1000 keys end in a 2048-slot table, 100 000 in a 2^18-slot one.
	const extraTables = 18 - 11
	for _, format := range []string{"ndjson", "csv"} {
		allocs := func(n int) float64 {
			body := scanBody(format, n)
			rd := bytes.NewReader(body)
			return testing.AllocsPerRun(5, func() {
				rd.Reset(body)
				got, err := scanPairs(rd, format, false, func(dataset.Key, float64) {})
				if err != nil || got != int64(n) {
					t.Fatalf("%s: scanned %d of %d pairs: %v", format, got, n, err)
				}
			})
		}
		few, many := allocs(small), allocs(large)
		// The large body's tables make the GC run, which empties the
		// line-buffer pool (one new buffer, one new pool node) and lets
		// the runtime allocate on its own account; allow that much slack.
		const slack = 4
		if many > few+extraTables+slack {
			t.Errorf("%s: %v allocs for %d pairs, %v for %d: want at most %d more (table growth only)",
				format, few, small, many, large, extraTables+slack)
		}
	}
}

// BenchmarkScanPairs measures the scan layer alone on one ingest_raw-sized
// body: lines → fields → numbers → repeated-key check → push.
func BenchmarkScanPairs(b *testing.B) {
	const pairs = 100_000
	for _, format := range []string{"ndjson", "csv"} {
		b.Run(format, func(b *testing.B) {
			body := scanBody(format, pairs)
			rd := bytes.NewReader(body)
			var sum float64
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				n, err := scanPairs(rd, format, false, func(_ dataset.Key, v float64) { sum += v })
				if err != nil || n != pairs {
					b.Fatalf("scanned %d of %d pairs: %v", n, pairs, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pairs, "ns/pair")
		})
	}
}
