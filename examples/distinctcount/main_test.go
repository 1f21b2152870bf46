package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/testutil"
)

// TestDistinctcountGolden: the example prints testdata/distinctcount.golden
// byte for byte, so a change to set summaries and the §8.1 closed forms that moves any
// printed figure shows here. Run with -update to re-record.
func TestDistinctcountGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	testutil.Golden(t, filepath.Join("testdata", "distinctcount.golden"), out.Bytes())
}
