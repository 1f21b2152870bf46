package server_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sampling"
	"repro/pkg/client"
)

// BenchmarkServerQuery measures the full HTTP round trip of a
// max-dominance query over two stored ~1000-key PPS summaries — the
// steady-state read path of a dispersed deployment.
func BenchmarkServerQuery(b *testing.B) {
	sites := fixture(10000)
	c, closeSrv := startServer(b, engine.Config{})
	defer closeSrv()
	ctx := context.Background()
	summ := core.NewSummarizer(testSalt)
	for i := 0; i < 2; i++ {
		tau := sampling.TauForExpectedSize(sites[i], 1000)
		if _, err := c.PostSummary(ctx, "flows", summ.SummarizePPS(i, sites[i], tau)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.MaxDominance(ctx, "flows", 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestNDJSON measures the write path: a 10k-pair ndjson stream
// posted to /v1/ingest and summarized on arrival. b.SetBytes reports
// stream throughput.
func BenchmarkIngestNDJSON(b *testing.B) { benchmarkIngest(b, "ndjson", ndjsonBody) }

// BenchmarkIngestCSV is the same request with the same pairs as CSV.
func BenchmarkIngestCSV(b *testing.B) { benchmarkIngest(b, "csv", csvBody) }

func benchmarkIngest(b *testing.B, format string, render func(dataset.Instance) []byte) {
	sites := fixture(10000)
	body := render(sites[0])
	tau := sampling.TauForExpectedSize(sites[0], 1000)
	c, closeSrv := startServer(b, engine.Config{})
	defer closeSrv()
	ctx := context.Background()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Ingest(ctx, client.IngestOptions{
			Dataset: "flows", Instance: 0, Kind: "pps", Format: format,
			Salt: testSalt, SaltSet: true, Tau: tau,
		}, bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestMulti measures /v1/ingest/multi: 30 000 pairs over
// three pps instances, or over a thousand, interleaved line by line in
// one ndjson body and summarized on arrival, one stream per instance — so
// a batch of the scan holds three streams' pairs, or 256 streams' one
// each. b.SetBytes reports stream throughput.
func BenchmarkIngestMulti(b *testing.B) {
	for _, r := range []int{3, 1000} {
		b.Run(fmt.Sprintf("instances=%d", r), func(b *testing.B) { benchIngestMulti(b, r, 30000/r) })
	}
}

func benchIngestMulti(b *testing.B, r, pairs int) {
	ids := make([]int, r)
	sites := make([]dataset.Instance, r)
	for i := range sites {
		ids[i] = i
		sites[i] = make(dataset.Instance, pairs)
	}
	var body bytes.Buffer
	for k := 1; k <= pairs; k++ {
		for i, id := range ids {
			v := float64(1 + (k*(7+2*i))%40)
			sites[i][dataset.Key(k)] = v
			fmt.Fprintf(&body, "{\"key\":%d,\"instance\":%d,\"value\":%g}\n", k, id, v)
		}
	}
	taus := make([]float64, len(sites))
	for i, in := range sites {
		taus[i] = sampling.TauForExpectedSize(in, float64(pairs)/10)
	}
	c, closeSrv := startServer(b, engine.Config{})
	defer closeSrv()
	ctx := context.Background()
	b.SetBytes(int64(body.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.IngestMulti(ctx, client.MultiIngestOptions{
			Dataset: "flows", Instances: ids, Kind: "pps", Format: "ndjson",
			Salt: testSalt, SaltSet: true, Taus: taus,
		}, bytes.NewReader(body.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
