package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/testutil"
)

// TestDeriveGolden: the example prints testdata/derive.golden byte for
// byte, so a change to the derivation engines that moves any printed
// figure shows here. Run with -update to re-record.
func TestDeriveGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	testutil.Golden(t, filepath.Join("testdata", "derive.golden"), out.Bytes())
}
