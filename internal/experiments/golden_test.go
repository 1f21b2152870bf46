package experiments

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/testutil"
)

// Golden tests pin the Figures tables against committed expected outputs.
// Every figure is a deterministic computation (exact enumeration or
// numeric integration over the seed space), so any estimator regression
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

// reducedFigure7 is the benchmark-scale figure-7 workload that the golden
// tables and BenchmarkFigures run: the paper-scale figure's estimator code
// paths at a fraction of its runtime.
var reducedFigure7 = Figure7Options{ScaleDown: 20, IntegrationN: 32,
	Fractions: []float64{0.01, 0.1, 0.5}}

// unpinned names the Figures ids that have no golden file, each with the
// tests that check their cells instead.
var unpinned = map[string]string{
	"6.1":      "TestTheorem61Table",
	"ablation": "TestAblationFamilies, TestAblationSeeds, TestAblationRecurrence",
}

// goldenName names the subtest and golden file (testdata/<name>.golden.json)
// of a Figures id: figureN for the paper's numbered figures, the id itself
// for the rest.
func goldenName(id string) string {
	if _, err := strconv.Atoi(id); err == nil {
		return "figure" + id
	}
	return id
}

// TestGoldenFigures runs every generator of Figures: each table it makes
// must be non-degenerate (an ID, a header, a row), the whole table at
// least 12 of them, and every figure with a golden file must match it.
func TestGoldenFigures(t *testing.T) {
	ran, tables := 0, 0
	for _, f := range Figures {
		name := goldenName(f.ID)
		t.Run(name, func(t *testing.T) {
			ran++
			got := f.Gen(reducedFigure7)
			tables += len(got)
			for _, tab := range got {
				if tab.ID == "" || len(tab.Header) == 0 || len(tab.Rows) == 0 {
					t.Errorf("table %q is degenerate", tab.ID)
				}
			}
			if by, ok := unpinned[f.ID]; ok {
				t.Skipf("no golden file; cells checked by %s", by)
			}
			path := filepath.Join("testdata", name+".golden.json")
			if testutil.Update() {
				data, err := json.MarshalIndent(got, "", " ")
				if err != nil {
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
	if ran == len(Figures) && tables < 12 {
		t.Errorf("the figure table produced %d tables", tables)
	}
}

// BenchmarkFigures regenerates each paper figure and table end to end,
// one sub-benchmark per id of Figures. Figure 7 runs on reducedFigure7
// (the full-scale figure is cmd/figures -fig 7).
func BenchmarkFigures(b *testing.B) {
	for _, f := range Figures {
		b.Run(f.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkTables = f.Gen(reducedFigure7)
			}
		})
	}
}

var sinkTables []*Table

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
