package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv, when set, makes the test binary run summaryd's main with its
// own command line instead of the tests, so a test can start summaryd as
// a child process without building it.
const runMainEnv = "SUMMARYD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSummaryd runs summaryd with args in a child process and returns its
// exit code and standard error.
func runSummaryd(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatalf("running summaryd %v: %v", args, err)
	}
	return 0, stderr.String()
}

// TestFlagSurface pins summaryd's command line: eleven flags, none of
// them an engine setting, a wire-format default or a metrics switch.
// summaryd ingests on the in-line engine only, speaks both wire formats by
// negotiation and always serves /metrics, so the sharded/async flags,
// -wire and -metrics it once had are unknown and exit 2.
func TestFlagSurface(t *testing.T) {
	code, usage := runSummaryd(t, "-h")
	if code != 0 {
		t.Fatalf("summaryd -h exited %d:\n%s", code, usage)
	}
	var flags []string
	for _, line := range strings.Split(usage, "\n") {
		// The test binary's own flags (-test.*, testutil's -update) share
		// the flag set; they are the ones this process defines too, since
		// main, which defines summaryd's, has not run here.
		if name, ok := strings.CutPrefix(line, "  -"); ok && flag.Lookup(strings.Fields(name)[0]) == nil {
			flags = append(flags, strings.Fields(line)[0])
		}
	}
	if len(flags) != 11 {
		t.Errorf("summaryd defines %d flags, want 11: %v", len(flags), flags)
	}
	for _, arg := range []string{"-shards=2", "-batch=512", "-async", "-queue=16", "-wire=2", "-metrics=false"} {
		t.Run(strings.TrimPrefix(arg, "-"), func(t *testing.T) {
			code, stderr := runSummaryd(t, arg)
			if code != 2 || !strings.Contains(stderr, "flag provided but not defined") {
				t.Errorf("summaryd %s exited %d, want 2 for an unknown flag:\n%s", arg, code, stderr)
			}
		})
	}
}
