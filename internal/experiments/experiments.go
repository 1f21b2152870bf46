// Package experiments reproduces every figure and table of the paper's
// evaluation as deterministic text series. The §8.2 workloads are the
// synthetic ones of internal/simdata (substitution S1; see its package
// doc).
// Figures lists every figure and table by id with the generator of its
// Tables; cmd/figures prints them, BenchmarkFigures times them, and the
// tests pin their headline numbers against the paper.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a reproduced figure/table: named columns over formatted rows.
type Table struct {
	// ID names the paper artifact (e.g. "figure2").
	ID string
	// Title describes what the series shows.
	Title string
	// Header holds the column names.
	Header []string
	// Rows holds the formatted cells.
	Rows [][]string
	// Notes records reproduction caveats (substitutions, errata).
	Notes []string
}

// addRow appends one row of values formatted with %.6g.
func (t *Table) addRow(vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case string:
			row[i] = x
		case float64:
			row[i] = fmt.Sprintf("%.6g", x)
		default:
			row[i] = fmt.Sprint(x)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Figure is one experiment: its id, as `figures -fig` takes it, and the
// generator of its tables. Only figure 7 reads the options.
type Figure struct {
	ID  string
	Gen func(Figure7Options) []*Table
}

// Figures lists every experiment in paper order.
var Figures = []Figure{
	{"1", func(Figure7Options) []*Table { return figure1() }},
	{"2", func(Figure7Options) []*Table { return []*Table{figure2()} }},
	{"3", func(Figure7Options) []*Table { return []*Table{figure3()} }},
	{"4", func(Figure7Options) []*Table { return figure4() }},
	{"5", func(Figure7Options) []*Table { return figure5() }},
	{"6", func(Figure7Options) []*Table { return figure6() }},
	{"7", func(opt Figure7Options) []*Table { return []*Table{figure7(opt)} }},
	{"6.1", func(Figure7Options) []*Table { return []*Table{theorem61()} }},
	{"ablation", func(Figure7Options) []*Table { return ablation() }},
	{"multiperiod", func(Figure7Options) []*Table { return []*Table{multiPeriod()} }},
}
