package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/testutil"
)

// TestChangedetectGolden: the example prints testdata/changedetect.golden
// byte for byte, so a change to set and PPS summaries that moves any
// printed figure shows here. Run with -update to re-record.
func TestChangedetectGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	testutil.Golden(t, filepath.Join("testdata", "changedetect.golden"), out.Bytes())
}
