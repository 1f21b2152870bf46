package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestRun: -fig 2 prints Figure 2's table and nothing else, and an
// unknown figure id is refused without output.
func TestRun(t *testing.T) {
	var out, want bytes.Buffer
	if err := run(&out, []string{"-fig", "2"}); err != nil {
		t.Fatal(err)
	}
	for _, f := range experiments.Figures {
		if f.ID == "2" {
			for _, tab := range f.Gen(experiments.Figure7Options{}) {
				tab.Fprint(&want)
			}
		}
	}
	if !strings.HasPrefix(out.String(), "== figure2: ") || out.String() != want.String() {
		t.Errorf("-fig 2 printed:\n%s\nwant Figure 2's table alone:\n%s", out.String(), want.String())
	}

	out.Reset()
	err := run(&out, []string{"-fig", "8"})
	if err == nil || !strings.Contains(err.Error(), `unknown figure "8"`) {
		t.Errorf("-fig 8: error %v, want an unknown figure", err)
	}
	if out.Len() != 0 {
		t.Errorf("-fig 8 printed %q", out.String())
	}
}
