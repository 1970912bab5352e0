package kernel

import (
	"testing"

	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/tlb"
)

func TestMmapHugeRequiresAlignmentAndPopulate(t *testing.T) {
	k := testKernel()
	p := k.NewProcess()
	var errs []error
	p.Spawn(0, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Mmap(100, false).Populate(-1).Huge() },                        // not ×512
		func(th *Thread) Op { errs = append(errs, th.LastErr); return Mmap(512, false).Huge() }, // no populate
		func(th *Thread) Op { errs = append(errs, th.LastErr); return Op{} },
	}})
	run(k, 5*sim.Millisecond)
	if len(errs) != 2 || errs[0] == nil || errs[1] == nil {
		t.Fatalf("errors = %v, want two rejections", errs)
	}
}

func TestHugeMmapTouchMunmap(t *testing.T) {
	spec := testKernel().Spec // reuse sizing
	_ = spec
	k := testKernel()
	p := k.NewProcess()
	var base pt.VPN
	var tlbAfterTouch int
	var faults int
	p.Spawn(0, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Mmap(1024, true).Populate(-1).Huge() },
		func(th *Thread) Op {
			if th.LastErr != nil {
				t.Fatalf("huge mmap: %v", th.LastErr)
			}
			base = th.LastAddr
			if base != pt.HugeBase(base) {
				t.Fatalf("huge mmap base %#x not 2MB-aligned", uint64(base))
			}
			return TouchRange(base, 1024, true)
		},
		func(th *Thread) Op {
			tlbAfterTouch = k.Cores[0].TLB.Len()
			return Munmap(base, 1024)
		},
		func(th *Thread) Op {
			if th.LastErr != nil {
				t.Fatalf("huge munmap: %v", th.LastErr)
			}
			return TouchRange(base, 8, false)
		},
		func(th *Thread) Op { faults = th.LastFault; return Op{} },
	}})
	run(k, 20*sim.Millisecond)
	// 1024 pages = 2 huge mappings: the touch must have used 2 TLB entries,
	// not 1024 (that is the THP win).
	if tlbAfterTouch == 0 || tlbAfterTouch > 4 {
		t.Fatalf("TLB entries after touching 1024 huge-mapped pages = %d, want ~2", tlbAfterTouch)
	}
	if faults != 8 {
		t.Fatalf("post-munmap touches faulted %d, want 8", faults)
	}
	if got := k.Alloc.TotalInUse(); got != 0 {
		t.Fatalf("frames leaked after huge munmap: %d", got)
	}
	if k.Metrics.Counter("sys.mmap_huge") != 1 {
		t.Fatal("huge mmap counter wrong")
	}
}

func TestPartialHugeUnmapRejected(t *testing.T) {
	k := testKernel()
	p := k.NewProcess()
	var err2 error
	p.Spawn(0, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Mmap(512, true).Populate(-1).Huge() },
		func(th *Thread) Op { return Munmap(th.LastAddr, 100) },
		func(th *Thread) Op { err2 = th.LastErr; return Op{} },
	}})
	run(k, 5*sim.Millisecond)
	if err2 == nil {
		t.Fatal("partial huge unmap accepted (PMD split not modelled)")
	}
}

func TestHugeShootdownInvalidatesRemoteHugeEntry(t *testing.T) {
	k := testKernel()
	p := k.NewProcess()
	var base pt.VPN
	p.Spawn(1, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Sleep(50 * sim.Microsecond) },
		func(*Thread) Op { return TouchRange(base, 4, false) },
		func(*Thread) Op { return Compute(2 * sim.Millisecond) },
	}})
	p.Spawn(0, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Mmap(512, true).Populate(-1).Huge() },
		func(th *Thread) Op { base = th.LastAddr; return Sleep(100 * sim.Microsecond) },
		func(*Thread) Op { return Munmap(base, 512) },
		func(*Thread) Op { return Compute(2 * sim.Millisecond) },
	}})
	run(k, 500*sim.Microsecond)
	if k.Cores[1].TLB.HasHuge(tlb.Tag{}, base) {
		t.Fatal("remote huge entry survived the shootdown")
	}
	// Invariant checker (on) proves no premature reuse happened.
}
