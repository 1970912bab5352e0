// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the simulated machines, plus the ablations DESIGN.md
// calls out. Each runner returns a Table whose rows mirror the series the
// paper plots; EXPERIMENTS.md records paper-vs-measured for each.
package experiments

import (
	"fmt"
	"strings"
)

// Table is one experiment's result: titled columns, formatted rows, and
// notes stating the paper's expectation next to what was measured.
type Table struct {
	ID      string // the id the experiment is registered under
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Note appends a commentary line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned ASCII.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

func fmtUS(ns float64) string  { return fmt.Sprintf("%.2fus", ns/1000) }
func fmtPct(f float64) string  { return fmt.Sprintf("%+.1f%%", f*100) }
func fmtRate(f float64) string { return fmt.Sprintf("%.1fk/s", f/1000) }
