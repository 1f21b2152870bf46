package experiments

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden figure tables in testdata/")

// Golden tests pin the full Figure 1–7 tables against committed expected
// outputs. Every figure is a deterministic computation (exact enumeration
// or numeric integration over the seed space), so any estimator regression
// — a changed coefficient, a broken variance formula, a biased estimate —
// shifts cells and fails here, not silently. Numeric cells are compared
// within a small relative tolerance to absorb last-ulp libm differences
// across platforms; everything else must match exactly.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/experiments -run TestGoldenFigures -update

const (
	goldenRelTol = 1e-5
	goldenAbsTol = 1e-9
)

func goldenCases() []struct {
	Name string
	Gen  func() []*Table
} {
	return []struct {
		Name string
		Gen  func() []*Table
	}{
		{"figure1", Figure1},
		{"figure2", func() []*Table { return []*Table{Figure2()} }},
		{"figure3", func() []*Table { return []*Table{Figure3()} }},
		{"figure4", Figure4},
		{"figure5", Figure5},
		{"figure6", Figure6},
		// Benchmark-scale workload: same estimator code paths as the
		// paper-scale figure at a fraction of the runtime.
		{"figure7", func() []*Table {
			return []*Table{Figure7(Figure7Options{ScaleDown: 20, IntegrationN: 32,
				Fractions: []float64{0.01, 0.1, 0.5}})}
		}},
		{"multiperiod", func() []*Table { return []*Table{MultiPeriod()} }},
	}
}

func TestGoldenFigures(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.Name, func(t *testing.T) {
			got := tc.Gen()
			path := filepath.Join("testdata", tc.Name+".golden.json")
			if *updateGolden {
				data, err := json.MarshalIndent(got, "", " ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			var want []*Table
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("corrupt golden file: %v", err)
			}
			compareTables(t, got, want)
		})
	}
}

func compareTables(t *testing.T, got, want []*Table) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("table count %d, want %d", len(got), len(want))
	}
	for ti, w := range want {
		g := got[ti]
		if g.ID != w.ID {
			t.Errorf("table %d: ID %q, want %q", ti, g.ID, w.ID)
		}
		if len(g.Header) != len(w.Header) {
			t.Fatalf("%s: header width %d, want %d", w.ID, len(g.Header), len(w.Header))
		}
		for i := range w.Header {
			if g.Header[i] != w.Header[i] {
				t.Errorf("%s: header[%d] %q, want %q", w.ID, i, g.Header[i], w.Header[i])
			}
		}
		if len(g.Rows) != len(w.Rows) {
			t.Fatalf("%s: %d rows, want %d", w.ID, len(g.Rows), len(w.Rows))
		}
		for ri, wrow := range w.Rows {
			grow := g.Rows[ri]
			if len(grow) != len(wrow) {
				t.Fatalf("%s row %d: %d cells, want %d", w.ID, ri, len(grow), len(wrow))
			}
			for ci, wcell := range wrow {
				if !cellsMatch(grow[ci], wcell) {
					t.Errorf("%s row %d col %d (%s): got %q, want %q",
						w.ID, ri, ci, colName(w.Header, ci), grow[ci], wcell)
				}
			}
		}
	}
}

// cellsMatch compares two formatted cells: numerically within tolerance
// when both parse as floats, exactly otherwise.
func cellsMatch(got, want string) bool {
	if got == want {
		return true
	}
	gv, gerr := strconv.ParseFloat(got, 64)
	wv, werr := strconv.ParseFloat(want, 64)
	if gerr != nil || werr != nil {
		return false
	}
	if math.IsInf(wv, 0) || math.IsNaN(wv) {
		return gv == wv || (math.IsNaN(gv) && math.IsNaN(wv))
	}
	diff := math.Abs(gv - wv)
	return diff <= goldenAbsTol || diff <= goldenRelTol*math.Abs(wv)
}

func colName(header []string, i int) string {
	if i < len(header) {
		return header[i]
	}
	return "?"
}
