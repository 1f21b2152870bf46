package testutil

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

// update is the -update flag of every test binary that compares with a
// golden file through Golden.
var update = flag.Bool("update", false, "rewrite the golden files from the current output instead of comparing with them")

// Update reports whether the test binary runs with -update, for a golden
// test that compares its own way, as internal/experiments' tolerance
// compare does.
//
//summarylint:ignore read by internal/experiments' golden test
func Update() bool { return *update }

// Golden compares got with the golden file at path, byte for byte. With
// -update it rewrites the file from got instead.
//
//summarylint:ignore shared by the golden tests of cmd/estimate and examples/*
func Golden(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (rerun with -update if that is the point)\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
