// Command figures regenerates the paper's figures and tables as aligned
// text series.
//
// Usage:
//
//	figures            # all figures
//	figures -fig 4     # only Figure 4
//	figures -fig 7 -scale 10 -n 32   # Figure 7 on a 10× smaller workload
//
// Figure ids: 1, 2, 3, 4, 5, 6, 7, 6.1 (the Theorem 6.1 report), ablation,
// multiperiod.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func main() {
	err := run(os.Stdout, os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(2)
	}
}

// run parses args and writes the selected figures' tables to w, in paper
// order.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate: 1..7, 6.1, ablation, multiperiod, or all")
	scale := fs.Int("scale", 1, "figure 7 workload scale-down factor")
	n := fs.Int("n", 64, "figure 7 per-key integration intervals")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opt := experiments.Figure7Options{ScaleDown: *scale, IntegrationN: *n}
	found := false
	for _, f := range experiments.Figures {
		if *fig != "all" && *fig != f.ID {
			continue
		}
		found = true
		for _, t := range f.Gen(opt) {
			t.Fprint(w)
		}
	}
	if !found {
		return fmt.Errorf("unknown figure %q", *fig)
	}
	return nil
}
