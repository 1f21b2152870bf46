package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/testutil"
)

// TestDispersedGolden: run fails unless every server answer and summary is
// bit-identical to the in-process one, and the example prints
// testdata/dispersed.golden byte for byte, so a change that moves a printed
// figure shows here too. Run with -update to re-record.
func TestDispersedGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	testutil.Golden(t, filepath.Join("testdata", "dispersed.golden"), out.Bytes())
}
