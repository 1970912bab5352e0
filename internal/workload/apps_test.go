package workload

import (
	"math"
	"runtime"
	"testing"

	latrcore "latr/internal/core"
	"latr/internal/cost"
	"latr/internal/kernel"
	"latr/internal/numa"
	"latr/internal/shootdown"
	"latr/internal/sim"
	"latr/internal/topo"
)

// runnable is the common workload surface.
type runnable interface {
	Setup(k *kernel.Kernel)
	Done() bool
	FinishTime() sim.Time
}

// runToCompletion drives w under pol (with AutoNUMA if auto) and returns
// the kernel and finish time.
func runToCompletion(t *testing.T, pol kernel.Policy, w runnable, auto bool, limit sim.Time) (*kernel.Kernel, sim.Time) {
	t.Helper()
	k := kernel.New(topo.TwoSocket16(), cost.Default(topo.TwoSocket16()), pol,
		kernel.Options{CheckInvariants: true, Seed: 21})
	if auto {
		a := numa.New(numa.Config{ScanPeriod: 2 * sim.Millisecond, PagesPerScan: 4096})
		a.Install(k)
		w.Setup(k)
		// Register every workload process created in Setup.
		for _, p := range k.Processes() {
			a.Register(p)
		}
	} else {
		w.Setup(k)
	}
	for k.Now() < limit && !w.Done() {
		k.Run(k.Now() + 10*sim.Millisecond)
	}
	if !w.Done() {
		t.Fatalf("workload did not complete within %v", limit)
	}
	return k, w.FinishTime()
}

func TestParsecProfilesComplete(t *testing.T) {
	// A fast subset: the two extremes plus the context-switch-heavy case.
	for _, name := range []string{"dedup", "blackscholes", "canneal"} {
		prof, ok := ParsecProfileByName(name)
		if !ok {
			t.Fatalf("profile %s missing", name)
		}
		prof.TotalOps = 2000 // shrink for the unit test
		w := NewParsec(prof, coresN(16))
		k, fin := runToCompletion(t, shootdown.NewLinux(), w, false, 10*sim.Second)
		if fin == 0 {
			t.Fatalf("%s: zero finish time", name)
		}
		if name == "dedup" && k.Metrics.Counter("shootdown.initiated") == 0 {
			t.Error("dedup produced no shootdowns")
		}
		if name == "canneal" && k.Metrics.Counter("sched.context_switches") < 10000 {
			t.Errorf("canneal ctx switches = %d, want heavy switching",
				k.Metrics.Counter("sched.context_switches"))
		}
	}
}

func TestParsecSuiteShape(t *testing.T) {
	if len(ParsecSuite()) != 13 {
		t.Fatalf("suite has %d benchmarks, want 13 (Fig 10)", len(ParsecSuite()))
	}
	if _, ok := ParsecProfileByName("nope"); ok {
		t.Fatal("found nonexistent profile")
	}
	// dedup must be the most madvise-intensive profile (paper's outlier).
	d, _ := ParsecProfileByName("dedup")
	for _, p := range ParsecSuite() {
		if p.Name == "dedup" || p.Name == "netdedup" {
			continue
		}
		if p.FreeEvery < d.FreeEvery {
			t.Errorf("%s frees more often than dedup", p.Name)
		}
	}
}

// mallocs returns the heap objects n calls of f allocate, counted from
// runtime.MemStats at GOMAXPROCS 1 as testing.AllocsPerRun counts them
// but not divided by n, so one object in the window shows. The runtime's
// own objects can land in a window too: under -race one run here read 1
// object where every other run of the same deterministic simulation read
// 0. So it reads three windows in a row and returns the least.
func mallocs(n int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// TestParsecSteadyStateAllocs checks that a warm PARSEC machine runs
// without allocating: ops are values, and a synchronous shootdown or a
// LATR state save reuses its records and frame lists, so 20 1 ms
// Kernel.Run slices make no heap object. canneal runs its op loop
// (compute, touch, sleep, and the context switches they drive) with its
// frees off: at its FreeEvery of 1800 it frees too rarely to show up in
// the measured slices. dedup frees (madvise) every 12 ops, under linux
// and under latr.
//
// The warm-up maps, fills the TLBs and grows the engine's tables. Under
// latr it also grows the pools a lazy free reuses to their peak: the
// collector's free spans and their phase-event slices, and the kernel's
// frame lists. dedup/latr opens more spans at once than ever before as
// late as 140-160 ms (63 objects in that window), and then no window
// allocates until the run ends at 1.42 s, so the warm-up runs 200 ms.
func TestParsecSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name, profile string
		freeEvery     int
		policy        func() kernel.Policy
		rises         string // a counter the measured slices must move
	}{
		{"canneal/linux", "canneal", 0, func() kernel.Policy { return shootdown.NewLinux() }, "sched.context_switches"},
		{"dedup/linux", "dedup", 12, func() kernel.Policy { return shootdown.NewLinux() }, "sys.madvise"},
		{"dedup/latr", "dedup", 12, func() kernel.Policy { return latrcore.New(latrcore.Config{}) }, "sys.madvise"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prof, _ := ParsecProfileByName(tc.profile)
			prof.FreeEvery = tc.freeEvery
			spec := topo.TwoSocket16()
			k := kernel.New(spec, cost.Default(spec), tc.policy(), kernel.Options{Seed: 1})
			w := NewParsec(prof, coresN(16))
			w.Setup(k)
			const slice = sim.Millisecond
			k.Run(200 * slice)
			before := k.Metrics.Counter(tc.rises)
			if n := mallocs(20, func() { k.Run(k.Now() + slice) }); n != 0 {
				t.Errorf("20 warm %s slices allocate %d objects, want 0", tc.name, n)
			}
			if w.Done() || k.Metrics.Counter(tc.rises) == before {
				t.Fatalf("the measured slices did not move %s", tc.rises)
			}
		})
	}
}

func TestDedupLATRWins(t *testing.T) {
	prof, _ := ParsecProfileByName("dedup")
	prof.TotalOps = 4000
	_, linuxT := runToCompletion(t, shootdown.NewLinux(), NewParsec(prof, coresN(16)), false, 20*sim.Second)
	_, latrT := runToCompletion(t, latrcore.New(latrcore.Config{}), NewParsec(prof, coresN(16)), false, 20*sim.Second)
	if latrT >= linuxT {
		t.Fatalf("LATR (%v) should beat Linux (%v) on dedup", latrT, linuxT)
	}
	imp := 1 - float64(latrT)/float64(linuxT)
	if imp < 0.02 || imp > 0.25 {
		t.Errorf("dedup improvement = %.1f%%, want ~9.6%%", imp*100)
	}
}

func TestGraph500Completes(t *testing.T) {
	cfg := DefaultGraph500Config(coresN(16))
	cfg.Scale = 12
	cfg.Roots = 60
	w := NewGraph500(cfg)
	if w.Levels() == 0 {
		t.Fatal("BFS produced no levels")
	}
	k, _ := runToCompletion(t, shootdown.NewLinux(), w, true, 10*sim.Second)
	if k.Metrics.Counter("graph500.page_touches") == 0 {
		t.Fatal("no page touches recorded")
	}
	if k.Metrics.Counter("numa.migrations") == 0 {
		t.Fatal("AutoNUMA never migrated anything despite node-0 placement")
	}
}

func TestPBZIP2Completes(t *testing.T) {
	cfg := DefaultPBZIP2Config(coresN(16))
	cfg.Blocks = 48
	w := NewPBZIP2(cfg)
	k, _ := runToCompletion(t, shootdown.NewLinux(), w, false, 10*sim.Second)
	if got := k.Metrics.Counter("pbzip2.blocks"); got != 48 {
		t.Fatalf("blocks compressed = %d, want 48", got)
	}
	if k.Metrics.Counter("sys.munmap") < 48 {
		t.Fatal("output buffers not freed per block")
	}
}

func TestMetisCompletes(t *testing.T) {
	cfg := DefaultMetisConfig(coresN(8))
	w := NewMetis(cfg)
	k, _ := runToCompletion(t, shootdown.NewLinux(), w, false, 10*sim.Second)
	if k.Metrics.Counter("metis.chunks_mapped") != 8*3 {
		t.Fatalf("chunks mapped = %d", k.Metrics.Counter("metis.chunks_mapped"))
	}
	if k.Metrics.Counter("sys.madvise") == 0 {
		t.Fatal("reducers never freed columns")
	}
}

func TestGridWorkloadsComplete(t *testing.T) {
	for _, cfg := range []GridConfig{OceanConfig(coresN(16)), FluidanimateConfig(coresN(16))} {
		cfg.Iterations = 10
		w := NewGrid(cfg)
		k, fin := runToCompletion(t, shootdown.NewLinux(), w, true, 10*sim.Second)
		if fin == 0 {
			t.Fatalf("%s: no finish time", cfg.Name)
		}
		if cfg.FreeEvery > 0 && k.Metrics.Counter("grid.scratch_frees") == 0 {
			t.Errorf("%s: scratch frees missing", cfg.Name)
		}
	}
}

func TestGridMigrationImprovesRuntime(t *testing.T) {
	// With AutoNUMA, bands migrate to their owners and the run gets faster
	// than without balancing (the premise of Fig 11).
	cfg := OceanConfig(coresN(16))
	cfg.Iterations = 120
	_, noNuma := runToCompletion(t, shootdown.NewLinux(), NewGrid(cfg), false, 30*sim.Second)
	k, withNuma := runToCompletion(t, shootdown.NewLinux(), NewGrid(cfg), true, 30*sim.Second)
	if k.Metrics.Counter("numa.migrations") == 0 {
		t.Fatal("no migrations with AutoNUMA on")
	}
	if withNuma >= noNuma {
		t.Fatalf("AutoNUMA did not help: %v (on) vs %v (off)", withNuma, noNuma)
	}
}
