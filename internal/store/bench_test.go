package store

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// benchSummaries builds summaries totalling about `entries` retained keys
// across `count` PPS summaries (one dataset, rotating instances).
func benchSummaries(count, entries int) []core.Summary {
	summ := core.NewSummarizer(2011)
	per := entries / count
	out := make([]core.Summary, count)
	key := uint64(1)
	for i := range out {
		in := make(dataset.Instance, per)
		for j := 0; j < per; j++ {
			in[dataset.Key(key*0x9E3779B97F4A7C15)] = float64(1 + key%997)
			key++
		}
		// tau below every value: all keys retained, so the summary size is
		// exactly per.
		out[i] = summ.SummarizePPS(i, in, 0.5)
	}
	return out
}

// BenchmarkWALAppend measures the durable hot path: one framed,
// checksummed, v2-encoded record per accepted summary (1000 retained
// keys each), no fsync — the configuration a throughput-focused
// deployment runs.
func BenchmarkWALAppend(b *testing.B) {
	sums := benchSummaries(8, 8*1000)
	st, err := Open(b.TempDir(), Options{SnapshotEvery: -1}, func(string, core.Summary) error { return nil })
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Append("bench", sums[i%len(sums)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	status := st.Status()
	b.ReportMetric(float64(status.WALBytes)/float64(status.WALRecords), "wal-bytes/record")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkSnapshotRecover measures crash recovery over a 1M-entry
// registry: the snapshot is written once, then each iteration replays it
// cold through Open. The recover-s metric is the boot-time cost an
// operator actually waits on.
func BenchmarkSnapshotRecover(b *testing.B) {
	const totalEntries = 1_000_000
	sums := benchSummaries(100, totalEntries)
	dir := b.TempDir()
	st, err := Open(dir, Options{SnapshotEvery: -1}, func(string, core.Summary) error { return nil })
	if err != nil {
		b.Fatal(err)
	}
	wait, err := st.SnapshotTraced(nil, func(emit func(string, core.Summary) error) error {
		for i, s := range sums {
			if err := emit(fmt.Sprintf("bench%d", i%10), s); err != nil {
				return err
			}
		}
		return nil
	}, func(bool) {}, true)
	if err != nil {
		b.Fatal(err)
	}
	if err := wait(); err != nil {
		b.Fatal(err)
	}
	st.Close()

	b.ReportAllocs()
	b.ResetTimer()
	var recovered int64
	var recoverTime time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		recovered = 0
		st, err := Open(dir, Options{}, func(_ string, s core.Summary) error {
			recovered += int64(s.Size())
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		st.Close()
		recoverTime += time.Since(start)
	}
	b.StopTimer()
	if recovered != totalEntries {
		b.Fatalf("recovered %d entries, want %d", recovered, totalEntries)
	}
	b.ReportMetric(recoverTime.Seconds()/float64(b.N), "recover-s")
	b.ReportMetric(float64(totalEntries)*float64(b.N)/recoverTime.Seconds(), "entries/s")
}

// BenchmarkRecoverScenario measures recovery over a directory shaped like
// the one bench/summaryload restarts summaryd on (buildScenario): 1024
// summaries of 900 keys, each written four times — two full snapshot
// chain files and a live segment holding every slot twice, ≈ 59 MB of
// which a quarter is live. Each iteration is one cold Open into a fresh
// registry-sized sink; recover-s is the time an operator waits, MB/s the
// rate the files were verified at.
func BenchmarkRecoverScenario(b *testing.B) {
	dir := b.TempDir()
	slots, roundBytes := buildScenario(b, dir, 16, 64, 900)
	b.ReportAllocs()
	b.ResetTimer()
	var recovered int
	var verified int64
	for i := 0; i < b.N; i++ {
		recovered = 0
		st, err := Open(dir, Options{}, func(string, core.Summary) error {
			recovered++
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		verified = st.Recovery().Bytes
		st.Close()
	}
	b.StopTimer()
	if recovered != slots || verified < 4*roundBytes {
		b.Fatalf("recovered %d summaries from %d verified bytes, want %d from at least %d", recovered, verified, slots, 4*roundBytes)
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "recover-s")
	b.ReportMetric(float64(verified)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MB/s")
}

// p99 returns the 99th-percentile of the samples. Destructive (sorts).
func p99(samples []time.Duration) time.Duration {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[(len(samples)*99)/100]
}

// BenchmarkAppendDuringSnapshot is the tentpole's latency claim measured:
// p99 append latency while a background worker continuously snapshots a
// 1M-entry registry image, against a baseline p99 with no snapshot in
// flight. The p99-ratio metric is what CI watches — durability work off
// the request path means the ratio stays small even though each snapshot
// encodes and fsyncs tens of megabytes.
func BenchmarkAppendDuringSnapshot(b *testing.B) {
	const totalEntries = 1_000_000
	snapSums := benchSummaries(100, totalEntries)
	sums := benchSummaries(8, 8*1000)
	st, err := Open(b.TempDir(), Options{SnapshotEvery: -1}, func(string, core.Summary) error { return nil })
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()

	// Baseline: appends with the snapshot worker idle.
	const baselineOps = 2000
	base := make([]time.Duration, baselineOps)
	for i := range base {
		start := time.Now()
		if _, err := st.Append("bench", sums[i%len(sums)]); err != nil {
			b.Fatal(err)
		}
		base[i] = time.Since(start)
	}
	basep99 := p99(base)

	// Keep one snapshot of the 1M-entry image perpetually in flight.
	dump := func(emit func(string, core.Summary) error) error {
		for i, s := range snapSums {
			if err := emit(fmt.Sprintf("bench%d", i%10), s); err != nil {
				return err
			}
		}
		return nil
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			wait, err := st.SnapshotTraced(nil, dump, func(bool) {}, true)
			if err != nil {
				return
			}
			_ = wait()
		}
	}()

	b.ReportAllocs()
	b.ResetTimer()
	lat := make([]time.Duration, b.N)
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := st.Append("bench", sums[i%len(sums)]); err != nil {
			b.Fatal(err)
		}
		lat[i] = time.Since(start)
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	dur := p99(lat)
	b.ReportMetric(float64(dur.Nanoseconds()), "p99-append-ns")
	b.ReportMetric(float64(basep99.Nanoseconds()), "baseline-p99-ns")
	b.ReportMetric(float64(dur)/float64(basep99), "p99-ratio")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
}
