package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestEngineFlagsAreUnknown: the demos summarize in-line only, so the
// sharded/async engine flags are gone and each one is a usage error; so is
// -sampler, since the sum demo draws a PPS summary only.
func TestEngineFlagsAreUnknown(t *testing.T) {
	for _, args := range [][]string{
		{"-demo", "-shards", "2"},
		{"-demo", "-batch", "8"},
		{"-demo", "-async"},
		{"-demo", "-queue", "4"},
		{"-demo", "-query", "sum", "-sampler", "pps"},
	} {
		t.Run(strings.Join(args[1:], " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr %q)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), "flag provided but not defined") {
				t.Errorf("stderr %q does not name an unknown flag", stderr.String())
			}
		})
	}
}

// TestDemoGolden: each demo prints testdata/<name>.golden, with the temp
// directory it writes to replaced by $DEMO. Run with -update to re-record.
func TestDemoGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"maxdominance", []string{"-demo", "-query", "maxdominance"}},
		{"distinct", []string{"-demo", "-query", "distinct"}},
		{"sum", []string{"-demo", "-query", "sum"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tmp := t.TempDir()
			t.Setenv("TMPDIR", tmp)
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d (stderr %q)", code, stderr.String())
			}
			dirs, err := filepath.Glob(filepath.Join(tmp, "estimate-demo-*"))
			if err != nil || len(dirs) != 1 {
				t.Fatalf("demo dirs %v (%v), want one", dirs, err)
			}
			got := strings.ReplaceAll(stdout.String(), dirs[0], "$DEMO")
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("output differs from %s\ngot:\n%s\nwant:\n%s", golden, got, want)
			}
		})
	}
}
