package experiments

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func baseBench() BenchJSON {
	return BenchJSON{
		ID:         "table9",
		Title:      "synthetic",
		Quick:      true,
		Seed:       1,
		GoMaxProcs: 4,
		Columns:    []string{"policy", "lat", "rate", "overhead"},
		Rows: [][]string{
			{"linux", "881.0ns", "54.3k/s", "12.0%"},
			{"latr", "12.5us", "61.0k/s", "3.4%"},
		},
		WallSec: 0.4,
	}
}

// TestCompareIdentical: identical results produce no diffs.
func TestCompareIdentical(t *testing.T) {
	diffs, err := CompareBench(baseBench(), baseBench())
	if err != nil || len(diffs) != 0 {
		t.Fatalf("identical compare: diffs=%v err=%v", diffs, err)
	}
}

// TestCompareWallSecIgnored: wall clock is host noise, never a diff.
func TestCompareWallSecIgnored(t *testing.T) {
	cur := baseBench()
	cur.WallSec = 99.0
	if diffs, err := CompareBench(baseBench(), cur); err != nil || len(diffs) != 0 {
		t.Fatalf("wall_sec drift flagged: diffs=%v err=%v", diffs, err)
	}
}

// TestCompareScalarDrift: a drifted scalar cell is flagged at its
// location with both texts, whichever way it moved.
func TestCompareScalarDrift(t *testing.T) {
	for _, cell := range []string{"1210.0ns", "640.0ns"} { // +37% / -27%
		cur := baseBench()
		cur.Rows[0][1] = cell
		diffs, err := CompareBench(baseBench(), cur)
		if err != nil {
			t.Fatal(err)
		}
		if len(diffs) != 1 {
			t.Fatalf("cell %q: diffs = %v, want 1", cell, diffs)
		}
		d := diffs[0]
		if d.Row != 0 || d.Col != 1 || d.Column != "lat" || d.Label != "linux" {
			t.Errorf("diff location wrong: %+v", d)
		}
		if d.Baseline != "881.0ns" || d.Current != cell {
			t.Errorf("diff texts = %q vs %q, want %q vs %q", d.Baseline, d.Current, "881.0ns", cell)
		}
		if !strings.Contains(d.String(), `"881.0ns"`) || !strings.Contains(d.String(), cell) {
			t.Errorf("String() = %q", d.String())
		}
	}
}

// TestCompareAnyCellDrift: the gate is exact, so a change in the last
// digit of a latency, a rate or a percentage cell is one diff naming
// that cell.
func TestCompareAnyCellDrift(t *testing.T) {
	for _, tc := range []struct {
		row, col         int
		column, was, now string
	}{
		{0, 1, "lat", "881.0ns", "881.1ns"},
		{1, 2, "rate", "61.0k/s", "61.1k/s"},
		{0, 3, "overhead", "12.0%", "12.1%"},
	} {
		cur := baseBench()
		if cur.Rows[tc.row][tc.col] != tc.was {
			t.Fatalf("fixture cell (%d,%d) = %q, want %q", tc.row, tc.col, cur.Rows[tc.row][tc.col], tc.was)
		}
		cur.Rows[tc.row][tc.col] = tc.now
		diffs, err := CompareBench(baseBench(), cur)
		if err != nil {
			t.Fatal(err)
		}
		if len(diffs) != 1 {
			t.Fatalf("%s -> %s: diffs = %v, want exactly 1", tc.was, tc.now, diffs)
		}
		d := diffs[0]
		if d.Row != tc.row || d.Col != tc.col || d.Column != tc.column || d.Baseline != tc.was || d.Current != tc.now {
			t.Errorf("%s -> %s: diff = %+v", tc.was, tc.now, d)
		}
	}
}

// TestCompareTextMismatch: non-numeric cells that differ are diffs too.
func TestCompareTextMismatch(t *testing.T) {
	cur := baseBench()
	cur.Rows[0][0] = "linux-v2"
	diffs, err := CompareBench(baseBench(), cur)
	if err != nil || len(diffs) != 1 {
		t.Fatalf("diffs=%v err=%v", diffs, err)
	}
	if d := diffs[0]; d.Baseline != "linux" || d.Current != "linux-v2" || d.Column != "policy" {
		t.Errorf("diff = %+v", d)
	}
}

// TestCompareStructuralErrors: mismatched identity, options or shape are
// errors, not diffs — the runs are not comparable.
func TestCompareStructuralErrors(t *testing.T) {
	mutate := map[string]func(*BenchJSON){
		"id":      func(b *BenchJSON) { b.ID = "other" },
		"quick":   func(b *BenchJSON) { b.Quick = false },
		"seed":    func(b *BenchJSON) { b.Seed = 7 },
		"columns": func(b *BenchJSON) { b.Columns = []string{"policy"} },
		"rows":    func(b *BenchJSON) { b.Rows = b.Rows[:1] },
		"cells":   func(b *BenchJSON) { b.Rows[0] = b.Rows[0][:2] },
	}
	for name, fn := range mutate {
		cur := baseBench()
		fn(&cur)
		if _, err := CompareBench(baseBench(), cur); err == nil {
			t.Errorf("%s mismatch did not error", name)
		}
	}
}

// TestCompareGoMaxProcs: a baseline recorded at a different GOMAXPROCS is
// refused outright — its wall-clock context is not comparable — and one
// that never recorded the setting demands regeneration.
func TestCompareGoMaxProcs(t *testing.T) {
	cur := baseBench()
	cur.GoMaxProcs = 8
	_, err := CompareBench(baseBench(), cur)
	if err == nil || !strings.Contains(err.Error(), "GOMAXPROCS=4") {
		t.Fatalf("GOMAXPROCS 4 vs 8 compare: err=%v, want refusal naming the recorded value", err)
	}
	stale := baseBench()
	stale.GoMaxProcs = 0
	if _, err := CompareBench(stale, baseBench()); err == nil {
		t.Fatal("baseline without a gomaxprocs header was accepted")
	}
}

// TestBenchJSONRoundTrip: Marshal/LoadBenchJSON round-trips, and loading
// rejects files that are not bench baselines.
func TestBenchJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_table9.json")
	data, err := baseBench().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBenchJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if diffs, err := CompareBench(baseBench(), got); err != nil || len(diffs) != 0 {
		t.Fatalf("round trip changed the baseline: diffs=%v err=%v", diffs, err)
	}

	bad := filepath.Join(dir, "BENCH_bad.json")
	if err := os.WriteFile(bad, []byte(`{"gomaxprocs": 8}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBenchJSON(bad); err == nil {
		t.Error("foreign JSON accepted as a baseline")
	}
	if _, err := LoadBenchJSON(filepath.Join(dir, "nope.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestBenchJSONFromTable captures table content and run options.
func TestBenchJSONFromTable(t *testing.T) {
	tbl := &Table{ID: "x", Title: "T", Columns: []string{"a"}, Rows: [][]string{{"1"}}, Notes: []string{"n"}}
	b := BenchJSONFromTable(tbl, Options{Quick: true, Seed: 9}, 1.5)
	if b.ID != "x" || !b.Quick || b.Seed != 9 || b.WallSec != 1.5 || len(b.Rows) != 1 || b.Notes[0] != "n" {
		t.Errorf("BenchJSONFromTable = %+v", b)
	}
	if b.GoMaxProcs != runtime.GOMAXPROCS(0) {
		t.Errorf("GoMaxProcs = %d, want the live setting %d", b.GoMaxProcs, runtime.GOMAXPROCS(0))
	}
}
