// Command summarylint runs the repo's domain-specific static-analysis
// suite (internal/lint) over the packages matched by its arguments:
//
//	go run ./cmd/summarylint ./...
//	go run ./cmd/summarylint -json ./... > lint.json
//
// The suite enforces the invariants the reproduction's guarantees rest
// on: deterministic map iteration in encode/query code (maporder),
// ordered float accumulation (floatsum), registry-before-store lock
// ranking (lockorder), allocation-free `//summarylint:hot` functions
// (hotalloc), nil-receiver guards on obs instruments (nilguard), and a
// user outside its package for every exported name in internal/
// (deadexport, which also reads the bench/summaryload module; give it
// ./..., since a partial package list hides the users).
// See the README's "Static analysis" section for the analyzer table and
// annotation conventions.
//
// Diagnostics only — there is no -fix. Suppress a finding with
// `//summarylint:ignore <reason>` on the flagged line or the line above;
// the reason is mandatory.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

// report is the machine-readable -json output, one object per run.
type report struct {
	Analyzers   []analyzerInfo    `json:"analyzers"`
	Diagnostics []lint.Diagnostic `json:"diagnostics"`
	Count       int               `json:"count"`
}

type analyzerInfo struct {
	Name string `json:"name"`
	Doc  string `json:"doc"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report on stdout")
	dir := flag.String("C", ".", "module directory to analyze")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: summarylint [-json] [-C dir] <packages>\n  e.g.: go run ./cmd/summarylint ./...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	prog, err := lint.Load(*dir, flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "summarylint: %v\n", err)
		os.Exit(2)
	}
	analyzers := lint.DefaultAnalyzers()
	diags := lint.Run(prog, analyzers)

	if *jsonOut {
		rep := report{Diagnostics: diags, Count: len(diags)}
		if rep.Diagnostics == nil {
			rep.Diagnostics = []lint.Diagnostic{}
		}
		for _, a := range analyzers {
			rep.Analyzers = append(rep.Analyzers, analyzerInfo{a.Name(), a.Doc()})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "summarylint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "summarylint: %d finding(s) in %d package(s)\n", len(diags), len(prog.Pkgs))
		os.Exit(1)
	}
}
