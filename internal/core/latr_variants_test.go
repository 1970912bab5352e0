package core

import (
	"testing"

	"latr/internal/cost"
	"latr/internal/kernel"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/tlb"
	"latr/internal/topo"
)

func variantKernel(opts kernel.Options) (*kernel.Kernel, *Policy) {
	spec := topo.Custom(2, 2)
	spec.MemPerNodeBytes = 64 << 20
	p := New(Config{})
	opts.CheckInvariants = true
	if opts.Seed == 0 {
		opts.Seed = 9
	}
	return kernel.New(spec, cost.Default(spec), p, opts), p
}

func TestForceSyncBypassesLaziness(t *testing.T) {
	// §7 proposes a per-call flag restoring synchronous semantics for
	// applications that rely on immediate fault-on-free. With ForceSync the
	// frames must be free the moment munmap returns, even under LATR.
	k, pol := variantKernel(kernel.Options{})
	p := k.NewProcess()
	p.Spawn(1, spin(10*sim.Millisecond))
	var inUseAfter int64
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(2, true).Populate(-1)
		},
		func(th *kernel.Thread) kernel.Op {
			return kernel.Munmap(th.LastAddr, 2).ForceSync()
		},
		func(*kernel.Thread) kernel.Op { inUseAfter = k.Alloc.TotalInUse(); return kernel.Op{} },
	))
	k.Run(10 * sim.Millisecond)
	if inUseAfter != 0 {
		t.Fatalf("frames in use right after ForceSync munmap = %d, want 0", inUseAfter)
	}
	if k.Metrics.Counter("latr.forced_sync") != 1 {
		t.Fatal("forced-sync path not taken")
	}
	if pol.PendingReclaim() != 0 {
		t.Fatal("ForceSync munmap left a lazy-reclaim entry")
	}
	if k.Metrics.Counter("shootdown.ipi") == 0 {
		t.Fatal("ForceSync should have used the IPI path")
	}
}

func TestPCIDPreservesEntriesAcrossSwitch(t *testing.T) {
	// §4.5: with PCIDs the context switch keeps TLB entries; the sweep at
	// the switch is mandatory and LATR still invalidates correctly.
	k, _ := variantKernel(kernel.Options{UsePCID: true})
	pA := k.NewProcess()
	pB := k.NewProcess()
	var base pt.VPN
	// A touches a page, then yields to B on the same core; with PCIDs A's
	// entry must survive B's tenure.
	pA.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(1, true).Populate(-1)
		},
		func(th *kernel.Thread) kernel.Op {
			base = th.LastAddr
			return kernel.TouchRange(base, 1, true)
		},
		func(*kernel.Thread) kernel.Op { return kernel.Sleep(500 * sim.Microsecond) },
		func(*kernel.Thread) kernel.Op { return kernel.Op{} },
	))
	pB.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op { return kernel.Sleep(100 * sim.Microsecond) },
		func(*kernel.Thread) kernel.Op { return kernel.Compute(200 * sim.Microsecond) },
	))
	k.Run(350 * sim.Microsecond)
	// B has run on core 0; A's entry must still be cached under A's PCID.
	if !k.Cores[0].TLB.Has(tlb.Tag{PCID: pA.MM.PCID}, base) {
		t.Fatal("PCID mode lost entries across a context switch")
	}
	if pA.MM.PCID == pB.MM.PCID {
		t.Fatal("processes share a PCID")
	}
}

func TestPCIDMunmapInvalidatesUnderLATR(t *testing.T) {
	// Even with entries persisting across switches, a LATR munmap + sweep
	// must kill them before reclamation (modelled INVPCID semantics).
	k, _ := variantKernel(kernel.Options{UsePCID: true})
	p := k.NewProcess()
	p.Spawn(1, spin(20*sim.Millisecond))
	var base pt.VPN
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(1, true).Populate(-1)
		},
		func(th *kernel.Thread) kernel.Op { base = th.LastAddr; return kernel.Sleep(100 * sim.Microsecond) },
		func(*kernel.Thread) kernel.Op { return kernel.Munmap(base, 1) },
		func(*kernel.Thread) kernel.Op { return kernel.Compute(10 * sim.Millisecond) },
	))
	// Warm core 1's TLB via its spin thread? Core 1 never touches the page;
	// touch from a third thread on core 1's runqueue instead.
	p.Spawn(1, kernel.Script(
		func(*kernel.Thread) kernel.Op { return kernel.Sleep(50 * sim.Microsecond) },
		func(*kernel.Thread) kernel.Op { return kernel.TouchRange(base, 1, false) },
		func(*kernel.Thread) kernel.Op { return kernel.Compute(10 * sim.Millisecond) },
	))
	// Run past sweeps and the reclaim delay: the invariant checker panics
	// if a PCID-tagged stale entry survives into frame reuse.
	k.Run(20 * sim.Millisecond)
	if k.Cores[1].TLB.Has(tlb.Tag{PCID: p.MM.PCID}, base) {
		t.Fatal("stale PCID-tagged entry survived the sweeps")
	}
	if k.Metrics.Counter("latr.reclaimed") == 0 {
		t.Fatal("reclaim never happened")
	}
}

func TestTicklessLATRStillCorrect(t *testing.T) {
	// §7: tickless kernels skip idle ticks; idle cores flush instead. The
	// invariant checker validates there is no window where reclaim beats
	// invalidation.
	k, _ := variantKernel(kernel.Options{Tickless: true})
	p := k.NewProcess()
	var base pt.VPN
	p.Spawn(1, kernel.Script(
		func(*kernel.Thread) kernel.Op { return kernel.Sleep(60 * sim.Microsecond) },
		func(*kernel.Thread) kernel.Op { return kernel.TouchRange(base, 1, false) },
		// Go idle immediately: under tickless the core's entries must be
		// dealt with despite never ticking again.
		func(*kernel.Thread) kernel.Op { return kernel.Op{} },
	))
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(1, true).Populate(-1)
		},
		func(th *kernel.Thread) kernel.Op { base = th.LastAddr; return kernel.Sleep(200 * sim.Microsecond) },
		func(*kernel.Thread) kernel.Op { return kernel.Munmap(base, 1) },
		// Keep core 0 running so reclaim and sweeps proceed.
		func(*kernel.Thread) kernel.Op { return kernel.Compute(10 * sim.Millisecond) },
	))
	k.Run(15 * sim.Millisecond)
	if k.Metrics.Counter("latr.reclaimed") == 0 {
		t.Fatal("nothing reclaimed under tickless mode")
	}
	if k.Metrics.Counter("sched.tickless_idle_flush") == 0 {
		t.Fatal("idle transition never flushed under tickless mode")
	}
	if got := k.Alloc.TotalInUse(); got != 0 {
		t.Fatalf("frames leaked under tickless: %d", got)
	}
}

func TestMadviseIsLazyToo(t *testing.T) {
	// Table 1: madvise frees are lazy-capable; the VA stays, the frames go
	// through the lazy list.
	k, pol := variantKernel(kernel.Options{})
	p := k.NewProcess()
	p.Spawn(1, spin(10*sim.Millisecond))
	var during int64
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(4, true).Populate(-1)
		},
		func(th *kernel.Thread) kernel.Op { return kernel.Madvise(th.LastAddr, 4) },
		func(*kernel.Thread) kernel.Op {
			during = k.Alloc.TotalInUse()
			return kernel.Compute(8 * sim.Millisecond)
		},
	))
	k.Run(10 * sim.Millisecond)
	if during != 4 {
		t.Fatalf("frames during lazy window = %d, want 4", during)
	}
	if got := k.Alloc.TotalInUse(); got != 0 {
		t.Fatalf("frames after reclaim = %d", got)
	}
	if pol.PendingReclaim() != 0 {
		t.Fatal("reclaim entry stuck")
	}
}

func TestHugeMunmapIsLazyUnderLATR(t *testing.T) {
	// §7's THP extension: a huge mapping's munmap goes through the same
	// LATR state + lazy-reclamation path, covering the 2 MB translation
	// with one range state; the remote huge TLB entry dies at the sweep.
	spec := topo.Custom(2, 2)
	spec.MemPerNodeBytes = 64 << 20
	pol := New(Config{})
	k := kernel.New(spec, cost.Default(spec), pol, kernel.Options{CheckInvariants: true, Seed: 9})
	p := k.NewProcess()
	var base pt.VPN
	p.Spawn(1, kernel.Script(
		func(*kernel.Thread) kernel.Op { return kernel.Sleep(50 * sim.Microsecond) },
		func(*kernel.Thread) kernel.Op { return kernel.TouchRange(base, 4, false) },
		func(*kernel.Thread) kernel.Op { return kernel.Compute(10 * sim.Millisecond) },
	))
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(512, true).Populate(-1).Huge()
		},
		func(th *kernel.Thread) kernel.Op { base = th.LastAddr; return kernel.Sleep(100 * sim.Microsecond) },
		func(*kernel.Thread) kernel.Op { return kernel.Munmap(base, 512) },
		func(*kernel.Thread) kernel.Op { return kernel.Compute(10 * sim.Millisecond) },
	))
	k.Run(300 * sim.Microsecond)
	// Before the remote tick: lazy window. The remote core may still hold
	// the huge translation; the 512 frames must still be allocated.
	if got := k.Alloc.TotalInUse(); got != 512 {
		t.Fatalf("frames in lazy window = %d, want 512", got)
	}
	if k.Metrics.Counter("shootdown.ipi") != 0 {
		t.Fatal("huge munmap used IPIs under LATR")
	}
	k.Run(10 * sim.Millisecond)
	if k.Cores[1].TLB.HasHuge(tlb.Tag{}, base) {
		t.Fatal("remote huge entry survived the sweeps")
	}
	if got := k.Alloc.TotalInUse(); got != 0 {
		t.Fatalf("frames after reclaim = %d", got)
	}
	if pol.PendingReclaim() != 0 {
		t.Fatal("reclaim entry stuck")
	}
}
