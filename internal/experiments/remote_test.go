package experiments

import (
	"testing"

	"latr/internal/sim"
	"latr/internal/topo"
)

// TestRemoteMemoryLATRBeatsLinuxP99 is the case-study acceptance check:
// with the shootdown off the eviction critical path, LATR's request p99
// must come in under Linux's on both reference machines, and the gap
// direction must hold across seeds.
func TestRemoteMemoryLATRBeatsLinuxP99(t *testing.T) {
	dur := 150 * sim.Millisecond
	for _, machine := range topo.PaperNames() {
		for _, seed := range []uint64{1, 2, 3} {
			o := Options{Quick: true, Seed: seed}
			lin := runRemoteMemory(machine, "linux", dur, o)
			lat := runRemoteMemory(machine, "latr", dur, o)
			if lin.SwapOuts == 0 || lat.SwapOuts == 0 {
				t.Fatalf("%s seed %d: no evictions (linux %d, latr %d) — no memory pressure",
					machine, seed, lin.SwapOuts, lat.SwapOuts)
			}
			if lin.SwapIns == 0 || lat.SwapIns == 0 {
				t.Fatalf("%s seed %d: no swap-ins (linux %d, latr %d)", machine, seed, lin.SwapIns, lat.SwapIns)
			}
			if !(lat.P99 < lin.P99) {
				t.Errorf("%s seed %d: LATR p99 %v not under Linux p99 %v", machine, seed, lat.P99, lin.P99)
			}
		}
	}
}

// TestRemoteMemoryDeterministicAcrossWorkers renders the full experiment
// table at several fan-out widths; the output must be byte-identical.
func TestRemoteMemoryDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		return RemoteMemory(Options{Quick: true, Seed: 7, Workers: workers}).String()
	}
	want := render(1)
	for _, w := range []int{2, 4, 8} {
		if got := render(w); got != want {
			t.Fatalf("workers=%d output diverges from sequential:\n%s\nvs\n%s", w, got, want)
		}
	}
}
