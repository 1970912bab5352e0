package shootdown

import (
	"testing"

	latrcore "latr/internal/core"
	"latr/internal/cost"
	"latr/internal/kernel"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/tlb"
	"latr/internal/topo"
)

func newK(pol kernel.Policy) *kernel.Kernel {
	spec := topo.Custom(2, 2)
	spec.MemPerNodeBytes = 64 << 20
	return kernel.New(spec, cost.Default(spec), pol, kernel.Options{CheckInvariants: true, Seed: 3})
}

func spin(d sim.Time) kernel.Program {
	return kernel.Script(func(*kernel.Thread) kernel.Op { return kernel.Compute(d) })
}

// mapTouchUnmap runs one mmap(pages)+warm-remote+munmap cycle with remote
// sharers on the given cores and returns the kernel afterwards.
func mapTouchUnmap(pol kernel.Policy, pages int, sharers []topo.CoreID) *kernel.Kernel {
	k := newK(pol)
	p := k.NewProcess()
	var base pt.VPN
	for _, c := range sharers {
		c := c
		p.Spawn(c, kernel.Script(
			func(*kernel.Thread) kernel.Op { return kernel.Sleep(50 * sim.Microsecond) },
			func(*kernel.Thread) kernel.Op { return kernel.TouchRange(base, pages, false) },
			func(*kernel.Thread) kernel.Op { return kernel.Compute(5 * sim.Millisecond) },
		))
	}
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(pages, true).Populate(-1)
		},
		func(th *kernel.Thread) kernel.Op { base = th.LastAddr; return kernel.Sleep(150 * sim.Microsecond) },
		func(*kernel.Thread) kernel.Op { return kernel.Munmap(base, pages) },
		func(*kernel.Thread) kernel.Op { return kernel.Compute(5 * sim.Millisecond) },
	))
	k.Run(10 * sim.Millisecond)
	return k
}

func TestLinuxMunmapWaitsForAcks(t *testing.T) {
	k := mapTouchUnmap(NewLinux(), 1, []topo.CoreID{1, 2, 3})
	sd := k.Metrics.Hist("munmap.shootdown")
	if sd.Count() != 1 {
		t.Fatalf("shootdown samples = %d", sd.Count())
	}
	// Core 2 is cross-socket: at least one 1-hop delivery must be waited
	// for on the critical path.
	if got := sd.Mean(); got < k.Cost.IPIDeliverLatency(1) {
		t.Fatalf("Linux shootdown = %v, must include the 2.7us cross-socket IPI", got)
	}
	if k.Metrics.Counter("ipi.handled") != 3 {
		t.Fatalf("remote handlers = %d, want 3", k.Metrics.Counter("ipi.handled"))
	}
	if k.Metrics.Counter("shootdown.ipi_targets") != 3 {
		t.Fatalf("targets = %d", k.Metrics.Counter("shootdown.ipi_targets"))
	}
}

func TestLinuxFreesOnlyAfterShootdown(t *testing.T) {
	k := mapTouchUnmap(NewLinux(), 2, []topo.CoreID{1})
	// All frames must be free by the end (synchronous path frees inline).
	if got := k.Alloc.TotalInUse(); got != 0 {
		t.Fatalf("frames in use after sync munmap = %d", got)
	}
	// And no invariant panic occurred (checker was on).
}

func TestLinuxSkipsWhenNoRemotes(t *testing.T) {
	k := newK(NewLinux())
	p := k.NewProcess()
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(1, true).Populate(-1)
		},
		func(th *kernel.Thread) kernel.Op { return kernel.Munmap(th.LastAddr, 1) },
	))
	k.Run(5 * sim.Millisecond)
	if k.Metrics.Counter("shootdown.ipi") != 0 {
		t.Fatal("IPIs sent with no remote cores in the mask")
	}
	if got := k.Metrics.Hist("munmap.shootdown").Mean(); got > 2*sim.Microsecond {
		t.Fatalf("single-core munmap shootdown = %v, want ~0", got)
	}
}

func TestABISNarrowsTargets(t *testing.T) {
	// Cores 1..3 run the process, but only core 1 touches the page. ABIS
	// must IPI core 1 only.
	k := newK(NewABIS())
	p := k.NewProcess()
	var base pt.VPN
	p.Spawn(1, kernel.Script(
		func(*kernel.Thread) kernel.Op { return kernel.Sleep(50 * sim.Microsecond) },
		func(*kernel.Thread) kernel.Op { return kernel.TouchRange(base, 1, false) },
		func(*kernel.Thread) kernel.Op { return kernel.Compute(5 * sim.Millisecond) },
	))
	for _, c := range []topo.CoreID{2, 3} {
		p.Spawn(c, spin(5*sim.Millisecond))
	}
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(1, true).Populate(-1)
		},
		func(th *kernel.Thread) kernel.Op { base = th.LastAddr; return kernel.Sleep(150 * sim.Microsecond) },
		func(*kernel.Thread) kernel.Op { return kernel.Munmap(base, 1) },
	))
	k.Run(10 * sim.Millisecond)
	if got := k.Metrics.Counter("shootdown.ipi_targets"); got != 1 {
		t.Fatalf("ABIS IPI targets = %d, want 1 (only the true sharer)", got)
	}
	if k.Metrics.Counter("abis.ipis_saved") == 0 {
		t.Fatal("no saved IPIs recorded")
	}
	if k.Metrics.Counter("abis.tracked") == 0 {
		t.Fatal("no sharer tracking happened")
	}
}

func TestABISTrackingHasCost(t *testing.T) {
	// The same touch workload must take longer under ABIS than Linux
	// because of access-bit maintenance — the low-core-count overhead in
	// Fig 9.
	elapsed := func(pol kernel.Policy) sim.Time {
		k := newK(pol)
		p := k.NewProcess()
		var end sim.Time
		p.Spawn(0, kernel.Script(
			func(*kernel.Thread) kernel.Op {
				return kernel.Mmap(512, true).Populate(-1)
			},
			func(th *kernel.Thread) kernel.Op {
				return kernel.TouchRange(th.LastAddr, 512, false)
			},
			func(*kernel.Thread) kernel.Op { end = k.Now(); return kernel.Op{} },
		))
		k.Run(50 * sim.Millisecond)
		return end
	}
	linux := elapsed(NewLinux())
	abis := elapsed(NewABIS())
	if abis <= linux {
		t.Fatalf("ABIS touch path (%v) should cost more than Linux (%v)", abis, linux)
	}
}

func TestBarrelfishNoInterruptsButSynchronous(t *testing.T) {
	k := mapTouchUnmap(NewBarrelfish(), 1, []topo.CoreID{1, 2})
	if k.Metrics.Counter("ipi.handled") != 0 {
		t.Fatal("Barrelfish should not use IPIs")
	}
	if k.Metrics.Counter("msg.handled") != 2 {
		t.Fatalf("messages handled = %d, want 2", k.Metrics.Counter("msg.handled"))
	}
	// Still synchronous: the munmap waits for remote polls, so its
	// shootdown cost is nonzero (at least a poll interval's worth of wait
	// is possible, and handling cost is always there).
	if got := k.Metrics.Hist("munmap.shootdown").Mean(); got < k.Cost.MsgHandle {
		t.Fatalf("Barrelfish shootdown = %v, should include remote handling wait", got)
	}
	if got := k.Alloc.TotalInUse(); got != 0 {
		t.Fatalf("frames in use after barrelfish munmap = %d", got)
	}
}

func TestPolicyComparativeLatency(t *testing.T) {
	// The headline ordering on the munmap critical path:
	// LATR << Barrelfish < Linux (Barrelfish drops the interrupt cost but
	// keeps the wait; LATR drops both).
	micro := func(pol kernel.Policy) sim.Time {
		k := mapTouchUnmap(pol, 1, []topo.CoreID{1, 2, 3})
		return k.Metrics.Hist("munmap.shootdown").Mean()
	}
	linux := micro(NewLinux())
	bf := micro(NewBarrelfish())
	latr := micro(latrcore.New(latrcore.Config{}))
	if latr >= bf/4 {
		t.Fatalf("LATR (%v) should be far below Barrelfish (%v)", latr, bf)
	}
	if bf >= linux {
		t.Fatalf("Barrelfish (%v) should beat Linux (%v) by dropping interrupts", bf, linux)
	}
}

func TestAllPoliciesReachSameMemoryState(t *testing.T) {
	// Functional equivalence: after identical workloads, every policy must
	// leave the same mapped pages and the same fault counts; only timing
	// differs. (LATR's lazy frames are reclaimed by the end.)
	type outcome struct {
		mapped int
		faults uint64
		inUse  int64
	}
	runOne := func(pol kernel.Policy) outcome {
		k := newK(pol)
		p := k.NewProcess()
		var keep, drop pt.VPN
		for c := 1; c <= 3; c++ {
			p.Spawn(topo.CoreID(c), kernel.Script(
				func(*kernel.Thread) kernel.Op { return kernel.Sleep(100 * sim.Microsecond) },
				func(*kernel.Thread) kernel.Op { return kernel.TouchRange(keep, 8, false) },
				func(*kernel.Thread) kernel.Op { return kernel.TouchRange(drop, 8, false) },
				func(*kernel.Thread) kernel.Op { return kernel.Compute(2 * sim.Millisecond) },
			))
		}
		p.Spawn(0, kernel.Script(
			func(*kernel.Thread) kernel.Op {
				return kernel.Mmap(8, true).Populate(-1)
			},
			func(th *kernel.Thread) kernel.Op {
				keep = th.LastAddr
				return kernel.Mmap(8, true).Populate(-1)
			},
			func(th *kernel.Thread) kernel.Op { drop = th.LastAddr; return kernel.Sleep(300 * sim.Microsecond) },
			func(*kernel.Thread) kernel.Op { return kernel.Munmap(drop, 8) },
			func(*kernel.Thread) kernel.Op { return kernel.TouchRange(keep, 8, true) },
		))
		k.Run(20 * sim.Millisecond)
		return outcome{
			mapped: p.MM.PT.Mapped(),
			faults: k.Metrics.Counter("fault.segv"),
			inUse:  k.Alloc.TotalInUse(),
		}
	}
	ref := runOne(NewLinux())
	for _, pol := range []kernel.Policy{NewABIS(), NewBarrelfish(), latrcore.New(latrcore.Config{}), kernel.NewInstantPolicy()} {
		got := runOne(pol)
		if got != ref {
			t.Errorf("%T diverged: got %+v, want %+v", pol, got, ref)
		}
	}
}

func TestSyncChangeInvalidatesRemotes(t *testing.T) {
	for _, pol := range []kernel.Policy{NewLinux(), NewABIS(), NewBarrelfish(), latrcore.New(latrcore.Config{})} {
		k := newK(pol)
		p := k.NewProcess()
		var base pt.VPN
		p.Spawn(1, kernel.Script(
			func(*kernel.Thread) kernel.Op { return kernel.Sleep(50 * sim.Microsecond) },
			func(*kernel.Thread) kernel.Op { return kernel.TouchRange(base, 1, true) },
			func(*kernel.Thread) kernel.Op { return kernel.Compute(2 * sim.Millisecond) },
		))
		p.Spawn(0, kernel.Script(
			func(*kernel.Thread) kernel.Op {
				return kernel.Mmap(1, true).Populate(-1)
			},
			func(th *kernel.Thread) kernel.Op { base = th.LastAddr; return kernel.Sleep(150 * sim.Microsecond) },
			func(*kernel.Thread) kernel.Op { return kernel.Mprotect(base, 1, false) },
			func(*kernel.Thread) kernel.Op { return kernel.Compute(2 * sim.Millisecond) },
		))
		// Stop just after the mprotect completes; the remote TLB entry must
		// already be gone — no waiting for ticks allowed for sync changes.
		k.Run(400 * sim.Microsecond)
		if k.Cores[1].TLB.Has(tlb.Tag{}, base) {
			t.Errorf("%s: stale writable entry on core 1 after mprotect", pol.Name())
		}
	}
}

func TestABISSharerMapDrainsOnForkExitChurn(t *testing.T) {
	// Regression test for the ABIS state leak: sharer tracking is keyed by
	// *MM and was never deleted on process exit, so fork/exit churn grew the
	// map without bound. OnMMExit must return it to empty.
	pol := NewABIS()
	k := newK(pol)

	const procs = 6
	for i := 0; i < procs; i++ {
		p := k.NewProcess()
		var base pt.VPN
		home := topo.CoreID(i % 4)
		peer := topo.CoreID((i + 1) % 4)
		p.Spawn(home, kernel.Script(
			func(*kernel.Thread) kernel.Op {
				return kernel.Mmap(4, true).Populate(-1)
			},
			func(th *kernel.Thread) kernel.Op {
				base = th.LastAddr
				return kernel.TouchRange(base, 4, false)
			},
			func(*kernel.Thread) kernel.Op { return kernel.Fork() },
			func(th *kernel.Thread) kernel.Op {
				// The forked child touches the CoW range from another core so
				// the child MM grows its own sharer entries, then exits.
				if th.LastProc != nil {
					th.LastProc.Spawn(peer, kernel.Script(
						func(*kernel.Thread) kernel.Op {
							return kernel.TouchRange(base, 4, false)
						},
					))
				}
				return kernel.Sleep(100 * sim.Microsecond)
			},
		))
		p.Spawn(peer, kernel.Script(
			func(*kernel.Thread) kernel.Op { return kernel.Sleep(50 * sim.Microsecond) },
			func(*kernel.Thread) kernel.Op { return kernel.TouchRange(base, 4, false) },
		))
	}

	// Mid-run the tracking state must exist, or the test is vacuous.
	k.Run(80 * sim.Microsecond)
	if pol.SharerMMs() == 0 {
		t.Fatal("no sharer state mid-run; churn workload is not exercising ABIS tracking")
	}
	// Let every thread — parents and forked children — run to exit.
	k.Run(30 * sim.Millisecond)
	if got := pol.SharerMMs(); got != 0 {
		t.Fatalf("sharer map retains %d MM entries after all processes exited (leak)", got)
	}
	if k.Metrics.Counter("abis.tracked") == 0 {
		t.Fatal("no sharer tracking recorded")
	}
}
