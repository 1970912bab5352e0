package experiments

// This file is the benchmark regression gate: the machine-readable form of
// a Table (what `latr-bench -json` writes as BENCH_<id>.json) plus an
// exact diff against a committed baseline. The gate re-runs the cheap
// experiments and fails when any cell's text differs.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// BenchJSON is one experiment's archived result. The deterministic engine
// makes every cell reproducible for a given (seed, quick) pair, so the
// only legitimate sources of drift are intentional model changes.
//
// GoMaxProcs records the parallelism the run was measured at. Result
// cells are deterministic regardless, but wall_sec is not, and a
// baseline silently recorded on a 1-core box once hid a 2-worker
// regression — so the header carries the setting and CompareBench
// refuses to diff across different ones.
type BenchJSON struct {
	ID         string     `json:"id"`
	Title      string     `json:"title"`
	Quick      bool       `json:"quick"`
	Seed       uint64     `json:"seed"`
	GoMaxProcs int        `json:"gomaxprocs"`
	Columns    []string   `json:"columns"`
	Rows       [][]string `json:"rows"`
	Notes      []string   `json:"notes,omitempty"`
	WallSec    float64    `json:"wall_sec"`
}

// BenchJSONFromTable captures a finished Table and the options that
// produced it, stamped with the GOMAXPROCS it ran at.
func BenchJSONFromTable(t *Table, o Options, wallSec float64) BenchJSON {
	return BenchJSON{
		ID:         t.ID,
		Title:      t.Title,
		Quick:      o.Quick,
		Seed:       o.Seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Columns:    t.Columns,
		Rows:       t.Rows,
		Notes:      t.Notes,
		WallSec:    wallSec,
	}
}

// Marshal renders the baseline file bytes (indented, trailing newline).
func (b BenchJSON) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// LoadBenchJSON reads one BENCH_<id>.json baseline.
func LoadBenchJSON(path string) (BenchJSON, error) {
	var b BenchJSON
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("experiments: parse %s: %w", path, err)
	}
	if b.ID == "" || len(b.Columns) == 0 {
		return b, fmt.Errorf("experiments: %s is not a bench baseline (no id/columns)", path)
	}
	return b, nil
}

// CellDiff is one cell whose text differs from the baseline's.
type CellDiff struct {
	Row, Col int
	Column   string // column header
	Label    string // first cell of the row, the series label
	Baseline string
	Current  string
}

func (d CellDiff) String() string {
	return fmt.Sprintf("row %q col %q: baseline %q vs current %q", d.Label, d.Column, d.Baseline, d.Current)
}

// CompareBench diffs current against baseline cell by cell. A structural
// mismatch — different experiment, run options, GOMAXPROCS, columns, or
// row or cell counts — is an error (the runs are not comparable); every
// cell whose text differs comes back as a diff. The engine is
// deterministic, so identical code reproduces every cell exactly. wall_sec
// is ignored: host wall-clock is the one non-deterministic field.
func CompareBench(baseline, current BenchJSON) ([]CellDiff, error) {
	if baseline.ID != current.ID {
		return nil, fmt.Errorf("experiments: comparing %q against baseline %q", current.ID, baseline.ID)
	}
	if baseline.Quick != current.Quick || baseline.Seed != current.Seed {
		return nil, fmt.Errorf("experiments: %s run options differ (baseline quick=%v seed=%d, current quick=%v seed=%d)",
			baseline.ID, baseline.Quick, baseline.Seed, current.Quick, current.Seed)
	}
	if baseline.GoMaxProcs == 0 {
		return nil, fmt.Errorf("experiments: %s baseline predates the gomaxprocs header — regenerate it (the wall-clock context it was recorded under is unknown)",
			baseline.ID)
	}
	if baseline.GoMaxProcs != current.GoMaxProcs {
		return nil, fmt.Errorf("experiments: %s was recorded at GOMAXPROCS=%d but this run is at GOMAXPROCS=%d — wall-clock and speedup context are not comparable; re-run with GOMAXPROCS=%d or regenerate the baseline",
			baseline.ID, baseline.GoMaxProcs, current.GoMaxProcs, baseline.GoMaxProcs)
	}
	if strings.Join(baseline.Columns, "\x00") != strings.Join(current.Columns, "\x00") {
		return nil, fmt.Errorf("experiments: %s columns changed (baseline %v, current %v) — regenerate the baseline",
			baseline.ID, baseline.Columns, current.Columns)
	}
	if len(baseline.Rows) != len(current.Rows) {
		return nil, fmt.Errorf("experiments: %s row count changed (baseline %d, current %d) — regenerate the baseline",
			baseline.ID, len(baseline.Rows), len(current.Rows))
	}
	var diffs []CellDiff
	for r, brow := range baseline.Rows {
		crow := current.Rows[r]
		if len(brow) != len(crow) {
			return nil, fmt.Errorf("experiments: %s row %d cell count changed (baseline %d, current %d)",
				baseline.ID, r, len(brow), len(crow))
		}
		for c := range brow {
			if brow[c] == crow[c] {
				continue
			}
			d := CellDiff{Row: r, Col: c, Label: brow[0], Baseline: brow[c], Current: crow[c]}
			if c < len(baseline.Columns) {
				d.Column = baseline.Columns[c]
			}
			diffs = append(diffs, d)
		}
	}
	return diffs, nil
}
