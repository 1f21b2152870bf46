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
//
// Every demo summary is drawn in-line, in one pass over its instance.
//
// -wire selects the serialization of the -demo summary files: 1 (the
// default) writes the JSON wire format, 2 the compact binary v2 format.
// The query side never needs a flag — summary files of either wire format
// are decoded by sniffing, so v1 and v2 files mix freely on one command
// line. Other versions exit 2.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/simdata"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the command, and returns its exit status: 0 on
// success, 1 when a summary file cannot be read or queried, 2 on a usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("estimate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	query := fs.String("query", "maxdominance", "query to run: maxdominance, distinct, or sum")
	demo := fs.Bool("demo", false, "write a demo summary pair to a temp directory and query it")
	wire := fs.Int("wire", 1, "wire version of the -demo summary files (1 = JSON, 2 = binary)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if !slices.Contains(core.SupportedWireVersions(), *wire) {
		fmt.Fprintf(stderr, "estimate: -wire %d: supported versions are %v\n", *wire, core.SupportedWireVersions())
		return 2
	}
	if *wire != 1 && !*demo {
		fmt.Fprintln(stderr, "estimate: -wire only applies to -demo output (query inputs are sniffed)")
		return 2
	}
	if *demo {
		if err := runDemo(stdout, *query, *wire); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	want := 2
	if *query == "sum" {
		want = 1
	}
	if fs.NArg() != want {
		fmt.Fprintf(stderr, "need exactly %d summary file(s) (or -demo)\n", want)
		return 2
	}
	if err := answer(stdout, *query, fs.Args()...); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// answer runs query over the summary files and prints the estimate.
func answer(stdout io.Writer, query string, files ...string) error {
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
		fmt.Fprintf(stdout, "subset sum (%s, %d keys):\n  estimate = %.6g\n", sum.Kind(), sum.Size(), est.SubsetSum(nil))
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
		fmt.Fprintf(stdout, "max-dominance over %d keys:\n  HT = %.6g\n  L  = %.6g\n", est.KeysUsed, est.HT, est.L)
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
		fmt.Fprintf(stdout, "distinct count:\n  HT = %.6g\n  L  = %.6g\n  categories: %+v\n", est.HT, est.L, est.Counts)
	default:
		return fmt.Errorf("unknown query %q", query)
	}
	return nil
}

// runDemo writes the demo summaries for query to a temp directory and
// answers query over them.
func runDemo(stdout io.Writer, query string, wire int) error {
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
			sum := s.SummarizePPSExpectedSize(i, m.Instances[i], 200)
			if paths[i], err = writeSummary(i, sum); err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "wrote %s, %s\n", paths[0], paths[1])
		fmt.Fprintf(stdout, "truth: %.6g\n", m.SumAggregate(dataset.Max, nil))
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
		fmt.Fprintf(stdout, "wrote %s, %s\n", paths[0], paths[1])
		fmt.Fprintf(stdout, "truth: %d\n", len(m.Keys()))
	case "sum":
		path, err := writeSummary(0, s.SummarizePPSExpectedSize(0, m.Instances[0], 200))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
		fmt.Fprintf(stdout, "truth: %.6g\n", m.Instances[0].Total())
		return answer(stdout, query, path)
	default:
		return fmt.Errorf("unknown query %q", query)
	}
	return answer(stdout, query, paths[0], paths[1])
}
