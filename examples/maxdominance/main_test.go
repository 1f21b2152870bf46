package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/testutil"
)

// TestMaxdominanceGolden: the example prints testdata/maxdominance.golden
// byte for byte, so a change to PPS summaries and the exact-variance machinery that moves any
// printed figure shows here. Run with -update to re-record.
func TestMaxdominanceGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	testutil.Golden(t, filepath.Join("testdata", "maxdominance.golden"), out.Bytes())
}
