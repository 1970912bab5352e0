package experiments

import (
	"encoding/json"
	"hash/fnv"
	"strings"
	"testing"
)

// The tests here drive the remaining experiment surfaces in quick mode —
// the case-study figures, the ablation studies and the Perfetto figure
// exports — checking shape and the paper's qualitative claims rather than
// exact numbers (the regression gate in cmd/latr-bench pins those).

// TestByIDQuick runs, through the ByID dispatcher, every experiment the
// rest of the suite does not already exercise directly.
func TestByIDQuick(t *testing.T) {
	// The knob ablations are pinned by the FNV-64a of their rendered
	// table: each routes its knob into the LATR policy, so a knob that
	// stops arriving changes the table.
	pins := map[string]uint64{
		"abl-depth": 0x720d9590f06a4110,
		"abl-delay": 0x176fc8d208c133a9,
		"abl-sweep": 0x99b578c9255a3d88,
	}
	for _, id := range []string{
		"table1", "table2", "table3", "table4",
		"fig10", "fig11", "fig12", "ipi",
		"abl-depth", "abl-sweep", "abl-delay", "abl-variants", "abl-thp",
	} {
		tb, err := ByID(id, quick)
		if err != nil {
			t.Fatalf("ByID(%s): %v", id, err)
		}
		if tb.ID != id {
			t.Errorf("ByID(%s) returned table %q", id, tb.ID)
		}
		if len(tb.Rows) == 0 || len(tb.Columns) == 0 {
			t.Errorf("%s: empty table (%d rows x %d cols)", id, len(tb.Rows), len(tb.Columns))
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Columns) {
				t.Errorf("%s: row %v has %d cells for %d columns", id, row, len(row), len(tb.Columns))
			}
		}
		if tb.String() == "" {
			t.Errorf("%s: table renders empty", id)
		}
		if want, ok := pins[id]; ok {
			h := fnv.New64a()
			h.Write([]byte(tb.String()))
			if got := h.Sum64(); got != want {
				t.Errorf("%s: table digest %#x, pinned %#x", id, got, want)
			}
		}
	}
}

// TestAblationReclaimDelayGrowsPool: the §4.2 claim — the lazy pool grows
// with the reclamation delay.
func TestAblationReclaimDelayGrowsPool(t *testing.T) {
	tb := AblationReclaimDelay(quick)
	if len(tb.Rows) < 2 {
		t.Fatalf("reclaim-delay ablation rows = %d", len(tb.Rows))
	}
	first := num(t, tb.Rows[0][1])
	last := num(t, tb.Rows[len(tb.Rows)-1][1])
	if last < first {
		t.Errorf("peak lazy memory shrank as delay grew: %v MB -> %v MB", first, last)
	}
}

func TestFig3TimelineRenders(t *testing.T) {
	out := Fig3Timeline(quick)
	for _, want := range []string{"Fig 3", "latr"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig3 timeline missing %q", want)
		}
	}
}

// TestFigPerfettoExports: both figure exports are valid Chrome trace JSON
// with one process group per policy, and byte-deterministic per seed.
func TestFigPerfettoExports(t *testing.T) {
	fig2, err := Fig2Perfetto(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(fig2)) {
		t.Fatal("fig2 perfetto invalid JSON")
	}
	for _, want := range []string{"fig2 linux", "fig2 latr"} {
		if !strings.Contains(fig2, want) {
			t.Errorf("fig2 missing group %q", want)
		}
	}
	fig3, err := Fig3Perfetto(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(fig3)) {
		t.Fatal("fig3 perfetto invalid JSON")
	}
	if !strings.Contains(fig3, "AutoNUMA") {
		t.Error("fig3 missing AutoNUMA label")
	}
	again, err := Fig2Perfetto(quick)
	if err != nil || again != fig2 {
		t.Error("fig2 perfetto export not byte-deterministic")
	}
}
