// Command estimate combines serialized summaries into multi-instance
// estimates — the "post hoc" workflow: instances were summarized
// independently (possibly on different machines), the summaries were
// archived as JSON, and queries arrive later.
//
// Usage:
//
//	estimate -query maxdominance a.json b.json
//	estimate -query distinct     a.json b.json
//	estimate -query sum          a.json # single-summary subset-sum estimate
//	estimate -demo                      # generate, serialize, and query a demo pair
//	estimate -demo -wire 2              # serialize the demo pair in the v2 binary format
//	estimate -demo -shards 4 -batch 512 # demo summarization through the sharded engine
//	estimate -demo -shards 4 -async -queue 16 # async engine: bounded queues
//	estimate -demo -query sum -sampler varopt # VarOpt_k reservoir demo
//
// -shards selects the summarization strategy for the engine-backed demos
// (maxdominance's PPS summaries and sum's PPS or VarOpt summary): 1
// (default) runs the sequential pipeline, n>1 uses n hash-partitioned
// shards, 0 one shard per CPU. -batch sizes the per-shard arrival
// batches; -async runs the engine's async mode with bounded per-shard
// queues of -queue batches. Negative values are rejected with exit 2
// through engine.Config.Validate — the one rule every front door shares;
// 0 always means "use the default". The summary is identical for every
// setting; only throughput changes (for VarOpt, identical in
// distribution — the reservoir's drop decisions are randomized). The
// distinct demo's set summaries do not route through the engine (set
// sampling is stateless), so non-default flags are rejected there rather
// than silently ignored.
//
// -sampler picks the sum demo's summary kind: pps (default, threshold
// sampling sized to ~200 expected keys) or varopt (a VarOpt_k reservoir
// of exactly 200 keys — the variance-optimal fixed-size scheme).
//
// -wire selects the serialization of the -demo summary files: 1 (the
// default) writes the JSON wire format, 2 the compact binary v2 format.
// The query side never needs a flag — summary files of either wire format
// are decoded by sniffing, so v1 and v2 files mix freely on one command
// line. Other versions exit 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/simdata"
)

func main() {
	query := flag.String("query", "maxdominance", "query to run: maxdominance, distinct, or sum")
	demo := flag.Bool("demo", false, "write a demo summary pair to the working directory and query it")
	sampler := flag.String("sampler", "pps", "summary kind for the sum demo: pps or varopt")
	shards := flag.Int("shards", 1, "summarization shards for -demo: 1 sequential, n>1 hash-partitioned, 0 per-CPU")
	batch := flag.Int("batch", engine.DefaultBatchSize, "per-shard batch size for -demo")
	async := flag.Bool("async", false, "run the -demo engine in async mode (bounded per-shard queues)")
	queue := flag.Int("queue", 0, "per-shard queue depth in batches for -demo (0 = default 8)")
	wire := flag.Int("wire", 1, "wire version of the -demo summary files (1 = JSON, 2 = binary)")
	flag.Parse()

	if !slices.Contains(core.SupportedWireVersions(), *wire) {
		fmt.Fprintf(os.Stderr, "estimate: -wire %d: supported versions are %v\n", *wire, core.SupportedWireVersions())
		os.Exit(2)
	}
	if *wire != 1 && !*demo {
		fmt.Fprintln(os.Stderr, "estimate: -wire only applies to -demo output (query inputs are sniffed)")
		os.Exit(2)
	}

	cfg := engine.Config{
		Parallel:   *shards != 1,
		Shards:     *shards,
		BatchSize:  *batch,
		Async:      *async,
		QueueDepth: *queue,
	}
	// One validation rule for every front door: the engine owns it.
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "estimate: %v\n", err)
		os.Exit(2)
	}
	engineFlagsSet := *shards != 1 || *batch != engine.DefaultBatchSize || *async || *queue != 0
	if engineFlagsSet && (!*demo || (*query != "maxdominance" && *query != "sum")) {
		fmt.Fprintln(os.Stderr, "estimate: -shards/-batch/-async/-queue only apply to the engine-backed demos (maxdominance, sum)")
		os.Exit(2)
	}
	if *sampler != "pps" && *sampler != "varopt" {
		fmt.Fprintf(os.Stderr, "estimate: unknown -sampler %q (pps, varopt)\n", *sampler)
		os.Exit(2)
	}
	if *sampler != "pps" && (!*demo || *query != "sum") {
		fmt.Fprintln(os.Stderr, "estimate: -sampler only applies to the sum demo (query inputs carry their kind)")
		os.Exit(2)
	}
	if *demo {
		if err := runDemo(*query, *sampler, cfg, *wire); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	want := 2
	if *query == "sum" {
		want = 1
	}
	if flag.NArg() != want {
		fmt.Fprintf(os.Stderr, "need exactly %d summary file(s) (or -demo)\n", want)
		os.Exit(2)
	}
	if err := run(*query, flag.Args()...); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(query string, files ...string) error {
	if query == "sum" {
		data, err := os.ReadFile(files[0])
		if err != nil {
			return err
		}
		sum, err := core.DecodeSummary(data)
		if err != nil {
			return err
		}
		est, ok := sum.(interface {
			SubsetSum(func(dataset.Key) bool) float64
		})
		if !ok {
			return fmt.Errorf("sum not supported for %s summaries", sum.Kind())
		}
		fmt.Printf("subset sum (%s, %d keys):\n  estimate = %.6g\n", sum.Kind(), sum.Size(), est.SubsetSum(nil))
		return nil
	}
	file1, file2 := files[0], files[1]
	d1, err := os.ReadFile(file1)
	if err != nil {
		return err
	}
	d2, err := os.ReadFile(file2)
	if err != nil {
		return err
	}
	switch query {
	case "maxdominance":
		s1, err := core.DecodePPSSummary(d1)
		if err != nil {
			return err
		}
		s2, err := core.DecodePPSSummary(d2)
		if err != nil {
			return err
		}
		est, err := core.MaxDominanceReaders(s1, s2, nil)
		if err != nil {
			return err
		}
		fmt.Printf("max-dominance over %d keys:\n  HT = %.6g\n  L  = %.6g\n", est.KeysUsed, est.HT, est.L)
	case "distinct":
		s1, err := core.DecodeSetSummary(d1)
		if err != nil {
			return err
		}
		s2, err := core.DecodeSetSummary(d2)
		if err != nil {
			return err
		}
		est, err := core.DistinctCountReaders(s1, s2, nil)
		if err != nil {
			return err
		}
		fmt.Printf("distinct count:\n  HT = %.6g\n  L  = %.6g\n  categories: %+v\n", est.HT, est.L, est.Counts)
	default:
		return fmt.Errorf("unknown query %q", query)
	}
	return nil
}

func runDemo(query, sampler string, cfg engine.Config, wire int) error {
	dir, err := os.MkdirTemp("", "estimate-demo-")
	if err != nil {
		return err
	}
	// The JSON files stay pretty-printed for eyeballing; binary files use
	// the canonical v2 bytes and a .sum2 extension.
	writeSummary := func(i int, sum core.Summary) (string, error) {
		var data []byte
		var err error
		name := fmt.Sprintf("hour%d.json", i+1)
		if wire == 1 {
			data, err = json.MarshalIndent(sum, "", " ")
		} else {
			name = fmt.Sprintf("hour%d.sum%d", i+1, wire)
			data, err = core.EncodeSummary(sum, wire)
		}
		if err != nil {
			return "", err
		}
		path := filepath.Join(dir, name)
		return path, os.WriteFile(path, data, 0o644)
	}
	m := simdata.Generate(simdata.ScaledTraffic(20))
	s := core.NewSummarizer(2011)
	var paths [2]string
	switch query {
	case "maxdominance":
		for i := 0; i < 2; i++ {
			sum := s.SummarizePPSExpectedSizeWith(cfg, i, m.Instances[i], 200)
			if paths[i], err = writeSummary(i, sum); err != nil {
				return err
			}
		}
		fmt.Printf("wrote %s, %s\n", paths[0], paths[1])
		fmt.Printf("truth: %.6g\n", m.SumAggregate(dataset.Max, nil))
	case "distinct":
		for i := 0; i < 2; i++ {
			members := make(map[dataset.Key]bool, len(m.Instances[i]))
			for h := range m.Instances[i] {
				members[h] = true
			}
			sum := s.SummarizeSet(i, members, 0.2)
			if paths[i], err = writeSummary(i, sum); err != nil {
				return err
			}
		}
		fmt.Printf("wrote %s, %s\n", paths[0], paths[1])
		fmt.Printf("truth: %d\n", len(m.Keys()))
	case "sum":
		var sum core.Summary
		if sampler == "varopt" {
			sum = s.SummarizeVarOptWith(cfg, 0, m.Instances[0], 200)
		} else {
			sum = s.SummarizePPSExpectedSizeWith(cfg, 0, m.Instances[0], 200)
		}
		path, err := writeSummary(0, sum)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
		fmt.Printf("truth: %.6g\n", m.Instances[0].Total())
		return run(query, path)
	default:
		return fmt.Errorf("unknown query %q", query)
	}
	return run(query, paths[0], paths[1])
}
