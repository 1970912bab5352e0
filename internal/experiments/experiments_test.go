package experiments

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	latrcore "latr/internal/core"
	"latr/internal/kernel"
)

// num parses the leading float out of a formatted cell ("9.40us",
// "+75.5%", "43.3k/s").
func num(t *testing.T, cell string) float64 {
	t.Helper()
	s := strings.TrimPrefix(cell, "+")
	for _, suf := range []string{"us", "%", "k/s", "ns", " MB", " B"} {
		s = strings.TrimSuffix(s, suf)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("cannot parse cell %q", cell)
	}
	return v
}

var quick = Options{Quick: true, Seed: 1}

func TestStaticTables(t *testing.T) {
	if got := len(Table1(quick).Rows); got != 9 {
		t.Errorf("table1 rows = %d", got)
	}
	if got := len(Table2(quick).Rows); got != 10 {
		t.Errorf("table2 rows = %d (paper's 9 approaches + tuned LATR)", got)
	}
	t3 := Table3(quick)
	if t3.Rows[1][1] != "16 (2x8)" || t3.Rows[1][2] != "120 (8x15)" {
		t.Errorf("table3 cores row = %v", t3.Rows[1])
	}
}

func TestFig6Shape(t *testing.T) {
	tb := Fig6(quick)
	last := tb.Rows[len(tb.Rows)-1]
	linux := num(t, last[1])
	latr := num(t, last[3])
	imp := num(t, last[5])
	if linux < 5 || linux > 13 {
		t.Errorf("Linux @16 cores = %vus, want ~8-9us", linux)
	}
	if latr > 4 {
		t.Errorf("LATR @16 cores = %vus, want ~2.4us", latr)
	}
	if imp < 55 {
		t.Errorf("improvement = %v%%, want ~70%%", imp)
	}
	// Linux must grow with cores; LATR must stay nearly flat.
	first := tb.Rows[1] // 2 cores
	if num(t, first[1]) >= linux {
		t.Error("Linux munmap did not grow with core count")
	}
	if num(t, last[3]) > 3*num(t, first[3]) {
		t.Error("LATR munmap should be nearly flat across cores")
	}
}

func TestFig7Knee(t *testing.T) {
	tb := Fig7(quick)
	// Find per-core-added latency before and after the 2-hop knee
	// (sockets >3 ⇔ cores >45 for the initiator on socket 0).
	delta := func(i, j int) float64 {
		ci, cj := num(t, tb.Rows[i][0]), num(t, tb.Rows[j][0])
		return (num(t, tb.Rows[j][1]) - num(t, tb.Rows[i][1])) / (cj - ci)
	}
	before := delta(1, 3) // 30→60 cores
	after := delta(4, 7)  // 75→120 cores
	if after <= before*1.3 {
		t.Errorf("no 2-hop knee: slope %v before vs %v after", before, after)
	}
	last := tb.Rows[len(tb.Rows)-1]
	if l := num(t, last[3]); l > 45 {
		t.Errorf("LATR @120 cores = %vus, paper says <40us", l)
	}
	if imp := num(t, last[4]); imp < 55 {
		t.Errorf("improvement @120 = %v%%, paper says 66.7%%", imp)
	}
}

func TestFig8Decay(t *testing.T) {
	tb := Fig8(quick)
	one := num(t, tb.Rows[0][4])
	big := num(t, tb.Rows[len(tb.Rows)-1][4])
	if one < 55 {
		t.Errorf("1-page improvement = %v%%, want ~70%%", one)
	}
	if big > 20 || big < 0 {
		t.Errorf("512-page improvement = %v%%, want ~7.5%%", big)
	}
	if big >= one {
		t.Error("improvement must decay with page count")
	}
}

func TestFig9Orderings(t *testing.T) {
	tb := Fig9(quick)
	// At 2 cores: ABIS below Linux (tracking overhead).
	if num(t, tb.Rows[0][2]) >= num(t, tb.Rows[0][1]) {
		t.Error("ABIS should trail Linux at 2 cores")
	}
	last := tb.Rows[len(tb.Rows)-1]
	linux, abis, latr := num(t, last[1]), num(t, last[2]), num(t, last[3])
	if !(latr > abis && abis > linux) {
		t.Errorf("@12 cores want latr > abis > linux, got %v / %v / %v", latr, abis, linux)
	}
	// LATR sustains more shootdowns than Linux (paper: +46%).
	if num(t, last[6]) <= num(t, last[4]) {
		t.Error("LATR should handle more shootdowns/s than Linux")
	}
	// ABIS cuts the shootdown rate drastically.
	if num(t, last[5]) > 0.6*num(t, last[4]) {
		t.Error("ABIS shootdown rate should be far below Linux")
	}
}

func TestTable5Anchors(t *testing.T) {
	tb := Table5(quick)
	save := num(t, tb.Rows[0][1])
	sweep := num(t, tb.Rows[1][1])
	linux := num(t, tb.Rows[2][1])
	if save < 100 || save > 170 {
		t.Errorf("state save = %vns, paper 132.3ns", save)
	}
	if sweep < 120 || sweep > 200 {
		t.Errorf("sweep visit = %vns, paper 158.0ns", sweep)
	}
	if linux < 3*save {
		t.Errorf("Linux initiator work (%vns) should dwarf the state save (%vns)", linux, save)
	}
}

func TestMemOverheadBounded(t *testing.T) {
	tb := MemOverhead(quick)
	for _, row := range tb.Rows {
		if left := num(t, row[2]); left != 0 {
			t.Errorf("%s: lazy memory leaked: %v B", row[0], left)
		}
	}
	small := num(t, tb.Rows[1][1]) // 16 cores x 1 page
	big := num(t, tb.Rows[len(tb.Rows)-1][1])
	if big <= small {
		t.Error("peak lazy memory should grow with pages per munmap")
	}
	if big > 30 {
		t.Errorf("peak lazy memory = %v MB, paper bounds it ~21 MB", big)
	}
}

func TestAblationTransportOrdering(t *testing.T) {
	tb := AblationTransport(quick)
	v := map[string]float64{}
	for _, row := range tb.Rows {
		v[row[0]] = num(t, row[1])
	}
	if !(v["instant"] < v["latr"] && v["latr"] < v["barrelfish"] && v["barrelfish"] < v["linux"]) {
		t.Errorf("transport ordering broken: %v", v)
	}
}

func TestAblationQueueDepthFallbacks(t *testing.T) {
	tb := AblationQueueDepth(quick)
	shallow := num(t, tb.Rows[0][2])
	deep := num(t, tb.Rows[len(tb.Rows)-1][2])
	if shallow <= deep {
		t.Errorf("shallow queue (%v fallbacks) should fall back more than deep (%v)", shallow, deep)
	}
}

// TestLATRKernelTakesSeedAndCheck checks that the ablations' kernels
// carry the shadow tracker exactly when -check asks for it, with o's seed
// and the caller's other options.
func TestLATRKernelTakesSeedAndCheck(t *testing.T) {
	for _, check := range []bool{false, true} {
		k := latrKernel(latrcore.Config{}, kernel.Options{UsePCID: true}, Options{Seed: 9, CheckInvariants: check})
		if (k.Tracker != nil) != check {
			t.Errorf("CheckInvariants %v: kernel has a tracker = %v", check, k.Tracker != nil)
		}
		if k.Opts.Seed != 9 || !k.Opts.UsePCID {
			t.Errorf("CheckInvariants %v: kernel options %+v, want seed 9 and PCID", check, k.Opts)
		}
	}
}

// TestVirtTableShape pins the virtualized table's headline claims: the
// trap-and-fan-out exit count is exactly 2N+1 per munmap under linux,
// guest-latr removes every exit, host-latr's balloon undercuts linux's
// synchronous quiesce, and no cell leaks a frame.
func TestVirtTableShape(t *testing.T) {
	tb := Virt(Options{Quick: true, Seed: 1, Workers: -1})
	cell := map[[2]string][]string{}
	for _, row := range tb.Rows {
		cell[[2]string{row[0], row[1]}] = row
	}
	if len(cell) != 10 {
		t.Fatalf("virt table has %d distinct cells, want 10", len(cell))
	}
	for mach, cores := range map[string]float64{"2x8": 16, "8x15": 120} {
		lin := cell[[2]string{"linux", mach}]
		if got, want := num(t, lin[4]), 2*(cores-1)+1; got != want {
			t.Errorf("%s linux exits/op = %v, want %v (2N+1)", mach, got, want)
		}
		if got := num(t, cell[[2]string{"guest-latr", mach}][4]); got != 0 {
			t.Errorf("%s guest-latr exits/op = %v, want 0", mach, got)
		}
		if hl, ln := num(t, cell[[2]string{"host-latr", mach}][6]), num(t, lin[6]); hl >= ln {
			t.Errorf("%s host-latr balloon %vus not below linux's %vus", mach, hl, ln)
		}
	}
	for key, row := range cell {
		if row[7] != "0" {
			t.Errorf("%v leaked %s adjusted frames", key, row[7])
		}
	}
}

// TestVirtIndependentOfChecking pins that the shadow tracker only checks:
// HATRIC's precise invalidations read the TLBs themselves, so every cell,
// its balloon latency included, is the same with checking on and off.
func TestVirtIndependentOfChecking(t *testing.T) {
	off := Virt(Options{Quick: true, Seed: 1, Workers: -1}).String()
	on := Virt(Options{Quick: true, Seed: 1, Workers: -1, CheckInvariants: true}).String()
	if on != off {
		t.Fatalf("virt table differs with checking on:\n%s\nwith it off:\n%s", on, off)
	}
}

func TestByIDAndIDsAgree(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range IDs() {
		if seen[id] {
			t.Errorf("id %q registered twice", id)
		}
		seen[id] = true
		if s, ok := lookup(id); !ok || s.ID != id || s.Run == nil {
			t.Errorf("lookup(%s) = %+v, %v", id, s, ok)
		}
		switch id {
		case "table1", "table2", "table3":
			tb, err := ByID(id, quick)
			if err != nil || tb.ID != id {
				t.Errorf("ByID(%s) = %v, %v", id, tb, err)
			}
		}
	}
	if _, err := ByID("bogus", quick); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Errorf("ByID(bogus) error = %v, want one naming the id", err)
	}
	ids, paper := IDs(), PaperIDs()
	if len(ids) != 25 {
		t.Errorf("IDs() = %d entries", len(ids))
	}
	if len(paper) != 15 {
		t.Errorf("PaperIDs() = %d entries", len(paper))
	}
	if len(paper) > len(ids) || !slices.Equal(paper, ids[:len(paper)]) {
		t.Errorf("PaperIDs() %v is not a prefix of IDs() %v", paper, ids)
	}
}

func TestTimelinesRender(t *testing.T) {
	out := Fig2Timeline(quick)
	for _, want := range []string{"Fig 2 (linux)", "Fig 2 (latr)", "state saved", "shootdown sent"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig2 timeline missing %q", want)
		}
	}
}
