package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quickstart.golden from the current output")

// TestQuickstartGolden: the example prints testdata/quickstart.golden
// byte for byte, so a change to the core Summarize paths that moves any
// printed figure shows here. Run with -update to re-record.
func TestQuickstartGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "quickstart.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from %s\ngot:\n%s\nwant:\n%s", golden, out.Bytes(), want)
	}
}
