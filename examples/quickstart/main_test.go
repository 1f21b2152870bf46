package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/testutil"
)

// TestQuickstartGolden: the example prints testdata/quickstart.golden
// byte for byte, so a change to the core Summarize paths that moves any
// printed figure shows here. Run with -update to re-record.
func TestQuickstartGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	testutil.Golden(t, filepath.Join("testdata", "quickstart.golden"), out.Bytes())
}
