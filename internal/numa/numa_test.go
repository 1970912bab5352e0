package numa

import (
	"testing"

	latrcore "latr/internal/core"
	"latr/internal/cost"
	"latr/internal/kernel"
	"latr/internal/pt"
	"latr/internal/shootdown"
	"latr/internal/sim"
	"latr/internal/topo"
)

func numaKernel(pol kernel.Policy, cfg Config) (*kernel.Kernel, *AutoNUMA) {
	spec := topo.Custom(2, 2)
	spec.MemPerNodeBytes = 64 << 20
	k := kernel.New(spec, cost.Default(spec), pol, kernel.Options{CheckInvariants: true, Seed: 5})
	a := New(cfg)
	a.Install(k)
	return k, a
}

// remoteAccessWorkload maps pages on node 0 (core 0 populates them), then
// hammers them from core 2 (node 1), which should trigger migrations.
func remoteAccessWorkload(k *kernel.Kernel, a *AutoNUMA, pages int) (p *kernel.Process, baseOut *pt.VPN) {
	p = k.NewProcess()
	a.Register(p)
	base := new(pt.VPN)
	started := false
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(pages, true).Populate(0)
		},
		func(th *kernel.Thread) kernel.Op {
			*base = th.LastAddr
			started = true
			return kernel.Compute(100 * sim.Millisecond)
		},
	))
	p.Spawn(2, kernel.Loop(func(th *kernel.Thread) kernel.Op {
		if !started {
			return kernel.Sleep(50 * sim.Microsecond)
		}
		return kernel.TouchRange(*base, pages, true)
	}))
	return p, base
}

func TestMigrationMovesPagesToAccessingNode(t *testing.T) {
	for _, pol := range []kernel.Policy{shootdown.NewLinux(), latrcore.New(latrcore.Config{})} {
		k, a := numaKernel(pol, Config{ScanPeriod: 5 * sim.Millisecond, PagesPerScan: 64})
		p, base := remoteAccessWorkload(k, a, 16)
		k.Run(100 * sim.Millisecond)
		if got := k.Metrics.Counter("numa.migrations"); got == 0 {
			t.Fatalf("%s: no migrations happened", pol.Name())
		}
		moved := 0
		for i := 0; i < 16; i++ {
			if e, ok := p.MM.PT.Get(*base + pt.VPN(i)); ok && k.Alloc.NodeOf(e.PFN) == 1 {
				moved++
			}
		}
		if moved == 0 {
			t.Fatalf("%s: no pages ended up on node 1", pol.Name())
		}
	}
}

func TestNoMigrationForLocalAccess(t *testing.T) {
	// Pages allocated and accessed on the same node must not migrate, but
	// the hint faults still fire and repair.
	k, a := numaKernel(shootdown.NewLinux(), Config{ScanPeriod: 5 * sim.Millisecond, PagesPerScan: 64})
	p := k.NewProcess()
	a.Register(p)
	var base pt.VPN
	p.Spawn(0, kernel.Loop(func(th *kernel.Thread) kernel.Op {
		if base == 0 {
			if th.LastAddr != 0 {
				base = th.LastAddr
			} else {
				return kernel.Mmap(8, true).Populate(0)
			}
		}
		return kernel.TouchRange(base, 8, true)
	}))
	k.Run(60 * sim.Millisecond)
	if got := k.Metrics.Counter("numa.migrations"); got != 0 {
		t.Fatalf("local-only access migrated %d pages", got)
	}
	if k.Metrics.Counter("numa.hint_faults") == 0 {
		t.Fatal("scanner never produced hint faults")
	}
	if k.Metrics.Counter("numa.local_repair") == 0 {
		t.Fatal("no local repairs recorded")
	}
}

func TestLinuxPaysShootdownAtScan(t *testing.T) {
	k, a := numaKernel(shootdown.NewLinux(), Config{ScanPeriod: 5 * sim.Millisecond, PagesPerScan: 64})
	remoteAccessWorkload(k, a, 8)
	k.Run(40 * sim.Millisecond)
	// Linux's NUMAUnmap sends IPIs (both worker cores are in the mask).
	if k.Metrics.Counter("shootdown.ipi") == 0 {
		t.Fatal("Linux AutoNUMA sampling sent no IPIs")
	}
}

func TestLATRSamplingAvoidsIPIs(t *testing.T) {
	k, a := numaKernel(latrcore.New(latrcore.Config{}), Config{ScanPeriod: 5 * sim.Millisecond, PagesPerScan: 64})
	remoteAccessWorkload(k, a, 8)
	k.Run(40 * sim.Millisecond)
	if k.Metrics.Counter("shootdown.ipi") != 0 {
		t.Fatal("LATR AutoNUMA sampling sent IPIs (should be lazy states)")
	}
	if k.Metrics.Counter("latr.migration_states") == 0 {
		t.Fatal("no migration states recorded")
	}
	if k.Metrics.Counter("numa.migrations") == 0 {
		t.Fatal("migrations did not complete under LATR")
	}
}

func TestLATRGatesFaultUntilAllCoresSweep(t *testing.T) {
	// §4.4 deterministic scenario on the 4-core machine (tick phases:
	// core0 at 200us, core2 at 600us, core3 at 800us, +n*1ms):
	//   fault #1 from core2 (node 1) repairs the hint (below threshold,
	//   no gate); after a second sampling unmap, fault #2 migrates — and
	//   must GATE because core3 has not swept the second state yet.
	k, _ := numaKernel(latrcore.New(latrcore.Config{}), Config{ScanPeriod: sim.Second})
	p := k.NewProcess()
	var base pt.VPN
	var fault2Done sim.Time
	unmap := func(th *kernel.Thread) kernel.Op {
		return kernel.Call(func(c *kernel.Core, th *kernel.Thread, done func()) {
			k.Policy().NUMAUnmap(c, p.MM, base, 1, done)
		})
	}
	// Core 3 stays busy so it remains in the shootdown mask and only its
	// ticks sweep.
	p.Spawn(3, kernel.Script(
		func(*kernel.Thread) kernel.Op { return kernel.Compute(5 * sim.Millisecond) },
	))
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(1, true).Populate(0)
		},
		func(th *kernel.Thread) kernel.Op { base = th.LastAddr; return kernel.Sleep(100 * sim.Microsecond) },
		unmap, // hint #1, state mask {0,2,3}
		func(*kernel.Thread) kernel.Op { return kernel.Sleep(900 * sim.Microsecond) },
		unmap, // hint #2 at ~1.0ms
		func(*kernel.Thread) kernel.Op { return kernel.Compute(4 * sim.Millisecond) },
	))
	p.Spawn(2, kernel.Script(
		// Fault #1 at ~650us: core2 swept at 600us, remote access, count=1
		// → repair without gating.
		func(*kernel.Thread) kernel.Op { return kernel.Sleep(650 * sim.Microsecond) },
		func(*kernel.Thread) kernel.Op { return kernel.TouchRange(base, 1, false) },
		// Fault #2 at ~1.65ms: core2 swept the second state at 1.6ms;
		// count=2 → migrate, gated until core3 sweeps at 1.8ms.
		func(*kernel.Thread) kernel.Op { return kernel.Sleep(1650*sim.Microsecond - 650*sim.Microsecond) },
		func(*kernel.Thread) kernel.Op { return kernel.TouchRange(base, 1, false) },
		func(th *kernel.Thread) kernel.Op { fault2Done = k.Now(); return kernel.Op{} },
	))
	k.Run(6 * sim.Millisecond)
	if got := k.Metrics.Counter("latr.migration_gated"); got != 1 {
		t.Fatalf("gated faults = %d, want exactly 1 (only the migrating fault)", got)
	}
	if k.Metrics.Counter("numa.migrations") != 1 {
		t.Fatalf("migrations = %d, want 1", k.Metrics.Counter("numa.migrations"))
	}
	if fault2Done < 1800*sim.Microsecond {
		t.Fatalf("gated migration completed at %v, before core3's sweep at 1.8ms", fault2Done)
	}
}

func TestMigrationPreservesData(t *testing.T) {
	// After migration, the mapping must be present, writable as before,
	// and the old frame must be free; the invariant checker guarantees no
	// core still cached the old translation.
	k, a := numaKernel(shootdown.NewLinux(), Config{ScanPeriod: 2 * sim.Millisecond, PagesPerScan: 32})
	p, base := remoteAccessWorkload(k, a, 4)
	k.Run(80 * sim.Millisecond)
	if k.Metrics.Counter("numa.migrations") == 0 {
		t.Skip("no migration in window")
	}
	for i := 0; i < 4; i++ {
		e, ok := p.MM.PT.Get(*base + pt.VPN(i))
		if !ok {
			t.Fatalf("page %d unmapped after migration", i)
		}
		if !e.Writable {
			t.Fatalf("page %d lost write permission", i)
		}
		if e.NUMAHint {
			t.Fatalf("page %d still hinted", i)
		}
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	a := New(Config{})
	if a.cfg.ScanPeriod != 10*sim.Millisecond || a.cfg.PagesPerScan != 128 {
		t.Fatalf("defaults = %+v", a.cfg)
	}
}
