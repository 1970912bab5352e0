package core

import (
	"slices"
	"testing"

	"latr/internal/cost"
	"latr/internal/kernel"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/tlb"
	"latr/internal/topo"
)

func latrKernel(cfg Config) (*kernel.Kernel, *Policy) {
	return latrKernelTuned(cfg, nil)
}

// latrKernelTuned builds the test machine with the given kernel knobs.
func latrKernelTuned(cfg Config, tun *kernel.Tunables) (*kernel.Kernel, *Policy) {
	spec := topo.Custom(2, 2)
	spec.MemPerNodeBytes = 64 << 20
	p := New(cfg)
	k := kernel.New(spec, cost.Default(spec), p, kernel.Options{CheckInvariants: true, Seed: 7, Tunables: tun})
	return k, p
}

// spin keeps a thread alive computing, so its core stays in the mm mask.
func spin(d sim.Time) kernel.Program {
	return kernel.Script(func(*kernel.Thread) kernel.Op { return kernel.Compute(d) })
}

// runCountingPending runs k to until in 100 µs steps and, after each,
// recounts from the queues the active states whose mask holds each core:
// the sweep's early return relies on pol.pending matching that count.
func runCountingPending(t *testing.T, k *kernel.Kernel, pol *Policy, until sim.Time) {
	t.Helper()
	for k.Now() < until {
		k.Run(min(k.Now()+100*sim.Microsecond, until))
		want := make([]int, len(pol.pending))
		for _, q := range pol.queues {
			for i := range q {
				if q[i].Active {
					q[i].Mask.ForEach(func(id topo.CoreID) { want[id]++ })
				}
			}
		}
		if !slices.Equal(pol.pending, want) {
			t.Fatalf("at %v: pending = %v, recounted from the queues %v", k.Now(), pol.pending, want)
		}
	}
}

func TestMunmapReturnsWithoutWaiting(t *testing.T) {
	k, _ := latrKernel(Config{})
	p := k.NewProcess()
	// Keep cores 1..3 busy in the same mm so the shootdown has targets.
	for c := 1; c <= 3; c++ {
		p.Spawn(topo.CoreID(c), spin(20*sim.Millisecond))
	}
	var base pt.VPN
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(2, true).Populate(-1)
		},
		func(th *kernel.Thread) kernel.Op {
			base = th.LastAddr
			return kernel.Munmap(base, 2)
		},
	))
	k.Run(30 * sim.Millisecond)
	// LATR's munmap critical path excludes any IPI wait: the shootdown
	// portion should be ~LATRStateSave, far below one IPI delivery.
	sd := k.Metrics.Hist("munmap.shootdown")
	if sd.Count() != 1 {
		t.Fatalf("munmap.shootdown samples = %d", sd.Count())
	}
	if got := sd.Max(); got > sim.Microsecond {
		t.Fatalf("LATR shootdown critical path = %v, want ~%v", got, k.Cost.LATRStateSave)
	}
	if k.Metrics.Counter("shootdown.ipi") != 0 {
		t.Fatal("LATR sent IPIs on the normal path")
	}
}

func TestRemoteInvalidationAtNextTick(t *testing.T) {
	k, pol := latrKernel(Config{})
	p := k.NewProcess()
	var base pt.VPN

	// Core 1 (tick phase 400us on this 4-core machine): warm the TLB at
	// ~100us, then compute without context switches so only its tick can
	// sweep.
	p.Spawn(1, kernel.Script(
		func(*kernel.Thread) kernel.Op { return kernel.Sleep(100 * sim.Microsecond) },
		func(*kernel.Thread) kernel.Op { return kernel.TouchRange(base, 1, false) },
		func(*kernel.Thread) kernel.Op { return kernel.Compute(10 * sim.Millisecond) },
	))
	// Core 0: mmap immediately, munmap at ~200us (after core 1 cached it).
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(1, true).Populate(-1)
		},
		func(th *kernel.Thread) kernel.Op { base = th.LastAddr; return kernel.Sleep(200 * sim.Microsecond) },
		func(*kernel.Thread) kernel.Op { return kernel.Munmap(base, 1) },
		func(*kernel.Thread) kernel.Op { return kernel.Compute(10 * sim.Millisecond) },
	))
	k.Run(300 * sim.Microsecond)
	if !k.Cores[1].TLB.Has(tlb.Tag{}, base) {
		t.Fatal("core 1 should still cache the page before its tick (lazy window)")
	}
	if pol.PendingStates() == 0 {
		t.Fatal("no active LATR state after munmap")
	}
	// After all cores tick (1ms + stagger) the state must be swept clean.
	k.Run(3 * sim.Millisecond)
	if k.Cores[1].TLB.Has(tlb.Tag{}, base) {
		t.Fatal("stale entry survived the sweep")
	}
	if pol.PendingStates() != 0 {
		t.Fatalf("states still pending after ticks: %d", pol.PendingStates())
	}
	if k.Metrics.Counter("latr.states_completed") == 0 {
		t.Fatal("no states completed")
	}
}

func TestLazyReclamationDelaysFreeing(t *testing.T) {
	k, pol := latrKernel(Config{})
	p := k.NewProcess()
	var base pt.VPN
	var afterMunmap int64
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(4, true).Populate(-1)
		},
		func(th *kernel.Thread) kernel.Op {
			base = th.LastAddr
			return kernel.Munmap(base, 4)
		},
		func(*kernel.Thread) kernel.Op {
			afterMunmap = k.Alloc.TotalInUse()
			return kernel.Compute(10 * sim.Millisecond)
		},
	))
	k.Run(500 * sim.Microsecond)
	if afterMunmap != 4 {
		t.Fatalf("frames in use right after munmap = %d, want 4 (lazy)", afterMunmap)
	}
	if pol.PendingReclaim() != 1 {
		t.Fatalf("PendingReclaim = %d", pol.PendingReclaim())
	}
	if got := k.Metrics.Gauge("latr.lazy_bytes"); got != 4*4096 {
		t.Fatalf("lazy_bytes = %d", got)
	}
	// VA must not be reused while on the lazy list.
	if p.MM.Space.LazyPages() != 4 {
		t.Fatalf("LazyPages = %d", p.MM.Space.LazyPages())
	}
	// After the 2ms delay plus a reclaim period, memory is free.
	k.Run(5 * sim.Millisecond)
	if got := k.Alloc.TotalInUse(); got != 0 {
		t.Fatalf("frames still held after reclaim: %d", got)
	}
	if got := k.Metrics.Gauge("latr.lazy_bytes"); got != 0 {
		t.Fatalf("lazy_bytes after reclaim = %d", got)
	}
	if k.Metrics.Counter("latr.reclaimed") != 1 {
		t.Fatal("reclaim pass did not run")
	}
}

func TestStaleAccessWindowThenSegfault(t *testing.T) {
	// §4.4: before the sweep, reads/writes through stale TLB entries reach
	// the old (not yet freed) page; after the sweep they segfault.
	k, _ := latrKernel(Config{})
	p := k.NewProcess()
	var base pt.VPN
	var preFaults, postFaults int
	// Core 0: mmap, munmap at ~120us, then stay busy.
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(1, true).Populate(-1)
		},
		func(th *kernel.Thread) kernel.Op { base = th.LastAddr; return kernel.Sleep(120 * sim.Microsecond) },
		func(*kernel.Thread) kernel.Op { return kernel.Munmap(base, 1) },
		func(*kernel.Thread) kernel.Op { return kernel.Compute(8 * sim.Millisecond) },
	))
	// Core 1 (tick at 400us): warm at ~50us, stale write at ~250us (after
	// the munmap, before the tick), then sleep past the sweep and write
	// again.
	p.Spawn(1, kernel.Script(
		func(*kernel.Thread) kernel.Op { return kernel.Sleep(50 * sim.Microsecond) },
		func(*kernel.Thread) kernel.Op { return kernel.TouchRange(base, 1, true) },
		func(*kernel.Thread) kernel.Op { return kernel.Compute(200 * sim.Microsecond) },
		func(*kernel.Thread) kernel.Op { return kernel.TouchRange(base, 1, true) },
		func(th *kernel.Thread) kernel.Op {
			preFaults = th.LastFault
			return kernel.Sleep(3 * sim.Millisecond)
		},
		func(*kernel.Thread) kernel.Op { return kernel.TouchRange(base, 1, true) },
		func(th *kernel.Thread) kernel.Op { postFaults = th.LastFault; return kernel.Op{} },
	))
	k.Run(10 * sim.Millisecond)
	if preFaults != 0 {
		t.Fatalf("pre-sweep stale write faulted (%d); should hit the old page", preFaults)
	}
	if k.Metrics.Counter("race.stale_write") == 0 {
		t.Fatal("stale write not observed by the tracker")
	}
	if postFaults != 1 {
		t.Fatalf("post-sweep write faults = %d, want 1 (segfault)", postFaults)
	}
}

func TestQueueOverflowFallsBackToIPIs(t *testing.T) {
	k, pol := latrKernelTuned(Config{}, &kernel.Tunables{QueueDepth: 4})
	p := k.NewProcess()
	// A second thread keeps another core in the mask so states are needed.
	p.Spawn(1, spin(50*sim.Millisecond))
	// Burst munmaps on core 0 faster than sweeps can clear 4 slots.
	n := 0
	var addr pt.VPN
	p.Spawn(0, kernel.Loop(func(th *kernel.Thread) kernel.Op {
		if n >= 40 {
			return kernel.Op{}
		}
		if n%2 == 0 {
			n++
			return kernel.Mmap(1, true).Populate(-1)
		}
		addr = th.LastAddr
		n++
		return kernel.Munmap(addr, 1)
	}))
	// A munmap that falls back records no state, so it moves no pending
	// count.
	runCountingPending(t, k, pol, 5*sim.Millisecond)
	if k.Metrics.Counter("latr.fallback_ipi") == 0 {
		t.Fatal("expected fallback IPIs with a 4-entry queue and a munmap burst")
	}
	if k.Metrics.Counter("shootdown.ipi") == 0 {
		t.Fatal("fallback did not actually send IPIs")
	}
}

func TestSweepAtContextSwitch(t *testing.T) {
	k, _ := latrKernel(Config{DisableTickSweep: true})
	p := k.NewProcess()
	p.Spawn(1, spin(20*sim.Millisecond))
	var base pt.VPN
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(1, true).Populate(-1)
		},
		func(th *kernel.Thread) kernel.Op { base = th.LastAddr; return kernel.Munmap(base, 1) },
	))
	// Add runqueue pressure on core 1 so it context-switches.
	p.Spawn(1, spin(20*sim.Millisecond))
	k.Run(50 * sim.Millisecond)
	if k.Metrics.Counter("latr.states_completed") == 0 {
		t.Fatal("context-switch sweeps did not complete the state")
	}
}

func TestMigrationStateDeferredUnmap(t *testing.T) {
	k, pol := latrKernel(Config{})
	p := k.NewProcess()
	mm := p.MM
	var base pt.VPN
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(1, true).Populate(-1)
		},
		func(th *kernel.Thread) kernel.Op {
			base = th.LastAddr
			return kernel.Call(func(c *kernel.Core, th *kernel.Thread, done func()) {
				k.Policy().NUMAUnmap(c, mm, base, 1, done)
			})
		},
		func(*kernel.Thread) kernel.Op { return kernel.Compute(5 * sim.Millisecond) },
	))
	k.Run(150 * sim.Microsecond) // before core 0's tick at 200us
	// Immediately after NUMAUnmap the PTE must NOT be hinted yet — that is
	// the lazy page-table change (§4.3).
	if e, ok := mm.PT.Get(base); !ok || e.NUMAHint {
		t.Fatalf("PTE hinted too early (lazy unmap violated): %+v ok=%v", e, ok)
	}
	if k.Metrics.Counter("latr.migration_states") != 1 {
		t.Fatal("migration state not recorded")
	}
	// After the ticks, the first sweeping core must have applied the hint.
	k.Run(4 * sim.Millisecond)
	if e, _ := mm.PT.Get(base); !e.NUMAHint {
		t.Fatal("deferred PTE unmap never happened")
	}
	if pol.PendingStates() != 0 {
		t.Fatal("migration state never completed")
	}
}

func TestMigrationGate(t *testing.T) {
	k, pol := latrKernel(Config{})
	p := k.NewProcess()
	mm := p.MM
	var base pt.VPN
	released := false
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(1, true).Populate(-1)
		},
		func(th *kernel.Thread) kernel.Op {
			base = th.LastAddr
			return kernel.Call(func(c *kernel.Core, th *kernel.Thread, done func()) {
				k.Policy().NUMAUnmap(c, mm, base, 1, done)
			})
		},
		func(*kernel.Thread) kernel.Op {
			if !pol.GateMigration(mm, base, func() { released = true }) {
				t.Error("GateMigration should defer while the state is active")
			}
			return kernel.Compute(5 * sim.Millisecond)
		},
	))
	k.Run(10 * sim.Millisecond)
	if !released {
		t.Fatal("gated continuation never released")
	}
	if pol.GateMigration(mm, base, func() {}) {
		t.Fatal("GateMigration deferred with no active state")
	}
}

func TestTable5StateCosts(t *testing.T) {
	k, _ := latrKernel(Config{})
	p := k.NewProcess()
	p.Spawn(1, spin(10*sim.Millisecond))
	var base pt.VPN
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(1, true).Populate(-1)
		},
		func(th *kernel.Thread) kernel.Op { base = th.LastAddr; return kernel.Munmap(base, 1) },
	))
	k.Run(10 * sim.Millisecond)
	// Table 5 anchors: save ~132ns, sweep visit ~158ns.
	if got := k.Metrics.Hist("latr.state_save").Mean(); got < 100 || got > 170 {
		t.Fatalf("state save = %v, want ~132ns", got)
	}
	if got := k.Metrics.Hist("latr.sweep_visit").Mean(); got < 120 || got > 200 {
		t.Fatalf("sweep visit = %v, want ~158ns", got)
	}
}

func TestInvariantHoldsUnderChurn(t *testing.T) {
	// Random mmap/touch/munmap churn across all cores with the shadow
	// tracker on: any premature reuse panics inside the kernel.
	k, pol := latrKernel(Config{})
	p := k.NewProcess()
	for c := 0; c < 4; c++ {
		c := c
		rng := sim.NewRand(uint64(c) + 99)
		var base pt.VPN
		have := false
		iters := 0
		p.Spawn(topo.CoreID(c), kernel.Loop(func(th *kernel.Thread) kernel.Op {
			iters++
			if iters > 400 {
				return kernel.Op{}
			}
			switch {
			case !have:
				have = true
				return kernel.Mmap(1+rng.Intn(8), true).Populate(-1)
			case rng.Intn(3) == 0:
				have = false
				return kernel.Munmap(th.LastAddr, 1) // partial unmap is fine
			default:
				base = th.LastAddr
				return kernel.TouchRange(base, 1, rng.Intn(2) == 0)
			}
		}))
	}
	runCountingPending(t, k, pol, 100*sim.Millisecond) // churn + reclaim cycles; panics on violation
	if k.Metrics.Counter("latr.reclaimed") == 0 {
		t.Fatal("no reclaims happened during churn")
	}
}

func TestConfigDefaults(t *testing.T) {
	// Attach copies the knobs from the kernel's Tunables: the paper's
	// values when Options.Tunables is nil, the given ones otherwise.
	_, p := latrKernel(Config{})
	if got := p.String(); got != "latr(depth=64, delay=2.000ms)" {
		t.Fatalf("default knobs = %s", got)
	}
	if p.Name() != "latr" {
		t.Fatal("identity methods broken")
	}
	_, p = latrKernelTuned(Config{}, &kernel.Tunables{QueueDepth: 8, ReclaimDelay: 4 * sim.Millisecond})
	if got := p.String(); got != "latr(depth=8, delay=4.000ms)" {
		t.Fatalf("tuned knobs = %s", got)
	}
}

// TestGateTimeoutForcesSweep pins the migration-gate escape hatch: with
// every sweep trigger disabled, a gated fault would wait forever — the
// 10 ms gate timeout must force the sweep, complete the state and release
// the waiter.
func TestGateTimeoutForcesSweep(t *testing.T) {
	k, pol := latrKernel(Config{
		DisableTickSweep:          true,
		DisableContextSwitchSweep: true,
	})
	p := k.NewProcess()
	mm := p.MM
	released := false
	var gatedAt, releasedAt sim.Time
	var base pt.VPN
	p.Spawn(1, spin(20*sim.Millisecond))
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(1, true).Populate(-1)
		},
		func(th *kernel.Thread) kernel.Op {
			base = th.LastAddr
			return kernel.Call(func(c *kernel.Core, th *kernel.Thread, done func()) {
				k.Policy().NUMAUnmap(c, mm, base, 1, done)
			})
		},
		func(*kernel.Thread) kernel.Op {
			gatedAt = k.Now()
			if !pol.GateMigration(mm, base, func() { released, releasedAt = true, k.Now() }) {
				t.Error("GateMigration should defer while the state is active")
			}
			return kernel.Compute(20 * sim.Millisecond)
		},
	))
	// The forced sweep clears the laggard cores' bits for them.
	runCountingPending(t, k, pol, 30*sim.Millisecond)
	if !released {
		t.Fatal("gate timeout never released the waiter")
	}
	if releasedAt-gatedAt < gateTimeout {
		t.Fatalf("waiter released %v after gating, before the %v timeout", releasedAt-gatedAt, gateTimeout)
	}
	if k.Metrics.Counter("latr.gate_timeout_forced") == 0 {
		t.Fatal("forced sweep not accounted")
	}
	if pol.PendingStates() != 0 {
		t.Fatal("migration state never completed")
	}
	if pol.PendingWaiters() != 0 {
		t.Fatal("waiters leaked")
	}
}

// BenchmarkLATRSweep times one core's sweep on an 8x15 machine where core
// 0's queue holds a state for cores 1-3. In idle, core 100 has nothing to
// do, as in almost every tick sweep; in work, core 5 records a one-page
// state for core 100 and core 100's sweep completes it.
func BenchmarkLATRSweep(b *testing.B) {
	spec := topo.EightSocket120()
	pol := New(Config{})
	k := kernel.New(spec, cost.Default(spec), pol, kernel.Options{Seed: 7})
	mm := k.NewProcess().MM
	pol.record(k.Cores[0], State{MM: mm, Start: 0x1000, Pages: 1, Mask: topo.MaskOf(1, 2, 3)})
	sweeper := k.Cores[100]
	b.Run("idle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pol.sweep(sweeper)
		}
	})
	b.Run("work", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pol.record(k.Cores[5], State{MM: mm, Start: 0x2000, Pages: 1, Mask: topo.MaskOf(sweeper.ID)})
			pol.sweep(sweeper)
		}
	})
}
