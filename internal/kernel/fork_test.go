package kernel

import (
	"testing"

	"latr/internal/mem"
	"latr/internal/pt"
	"latr/internal/sim"
)

// forkFixture maps a 4-page region in a parent, touches it, forks, and
// returns the kernel, parent, child, and region base.
func forkFixture(t *testing.T) (*Kernel, *Process, *Process, pt.VPN) {
	t.Helper()
	k := testKernel()
	parent := k.NewProcess()
	var base pt.VPN
	var child *Process
	parent.Spawn(0, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Mmap(4, true).Populate(-1) },
		func(th *Thread) Op {
			base = th.LastAddr
			return TouchRange(base, 4, true)
		},
		func(*Thread) Op { return Fork() },
		func(th *Thread) Op { child = th.LastProc; return Op{} },
	}})
	run(k, 10*sim.Millisecond)
	if child == nil {
		t.Fatal("fork produced no child")
	}
	return k, parent, child, base
}

func TestForkSharesFramesReadOnly(t *testing.T) {
	k, parent, child, base := forkFixture(t)
	for i := 0; i < 4; i++ {
		pe, ok1 := parent.MM.PT.Get(base + pt.VPN(i))
		ce, ok2 := child.MM.PT.Get(base + pt.VPN(i))
		if !ok1 || !ok2 {
			t.Fatalf("page %d unmapped after fork", i)
		}
		if pe.PFN != ce.PFN {
			t.Fatalf("page %d not shared: parent %d, child %d", i, pe.PFN, ce.PFN)
		}
		if pe.Writable || ce.Writable {
			t.Fatalf("page %d still writable after CoW sharing", i)
		}
		if got := k.Alloc.Refs(pe.PFN); got != 2 {
			t.Fatalf("page %d refcount = %d, want 2", i, got)
		}
	}
	if k.Metrics.Counter("fork.cow_shared_pages") != 4 {
		t.Fatal("shared-page accounting wrong")
	}
}

func TestCoWBreakOnWrite(t *testing.T) {
	k, parent, child, base := forkFixture(t)
	// A child thread writes the first page: it must get a private copy and
	// leave the parent's mapping alone.
	childDone := false
	child.Spawn(1, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return TouchRange(base, 1, true) },
		func(th *Thread) Op {
			if th.LastFault != 0 {
				t.Errorf("CoW write segfaulted (%d)", th.LastFault)
			}
			childDone = true
			return Op{}
		},
	}})
	run(k, k.Now()+10*sim.Millisecond)
	if !childDone {
		t.Fatal("child write never completed")
	}
	pe, _ := parent.MM.PT.Get(base)
	ce, _ := child.MM.PT.Get(base)
	if pe.PFN == ce.PFN {
		t.Fatal("CoW break did not copy the frame")
	}
	if !ce.Writable {
		t.Fatal("child's copy not writable")
	}
	if pe.Writable {
		t.Fatal("parent's mapping became writable without its own fault")
	}
	if got := k.Alloc.Refs(pe.PFN); got != 1 {
		t.Fatalf("shared frame refcount after break = %d, want 1", got)
	}
	if k.Metrics.Counter("fault.cow_break") != 1 {
		t.Fatalf("cow_break count = %d", k.Metrics.Counter("fault.cow_break"))
	}
	// The untouched pages remain shared.
	for i := 1; i < 4; i++ {
		pe, _ := parent.MM.PT.Get(base + pt.VPN(i))
		if k.Alloc.Refs(pe.PFN) != 2 {
			t.Fatalf("untouched page %d lost sharing", i)
		}
	}
}

func TestCoWReuseWhenSoleOwner(t *testing.T) {
	k, parent, child, base := forkFixture(t)
	// Child breaks its copy first; then the parent writes — it is the sole
	// owner and reuses the frame in place.
	step := make(chan struct{}) // not used for sync; sim is single-threaded
	_ = step
	child.Spawn(1, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return TouchRange(base, 1, true) },
	}})
	parent.Spawn(2, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Sleep(sim.Millisecond) },
		func(*Thread) Op { return TouchRange(base, 1, true) },
		func(th *Thread) Op {
			if th.LastFault != 0 {
				t.Errorf("parent CoW write faulted (%d)", th.LastFault)
			}
			return Op{}
		},
	}})
	run(k, k.Now()+10*sim.Millisecond)
	if k.Metrics.Counter("fault.cow_reuse") != 1 {
		t.Fatalf("cow_reuse = %d, want 1", k.Metrics.Counter("fault.cow_reuse"))
	}
	pe, _ := parent.MM.PT.Get(base)
	if !pe.Writable {
		t.Fatal("sole-owner upgrade did not restore writability")
	}
}

func TestForkReadsSeeSharedFrames(t *testing.T) {
	k, _, child, base := forkFixture(t)
	// Reads in the child must not fault and must not break sharing.
	child.Spawn(3, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return TouchRange(base, 4, false) },
		func(th *Thread) Op {
			if th.LastFault != 0 {
				t.Errorf("child read faulted (%d)", th.LastFault)
			}
			return Op{}
		},
	}})
	run(k, k.Now()+5*sim.Millisecond)
	if k.Metrics.Counter("fault.cow_break") != 0 {
		t.Fatal("reads broke CoW")
	}
}

func TestReleaseAddressSpaceDrainsRefs(t *testing.T) {
	k, parent, child, _ := forkFixture(t)
	_ = parent
	done := false
	child.Spawn(1, &script{steps: []func(*Thread) Op{
		func(*Thread) Op {
			return Call(func(c *Core, th *Thread, d func()) {
				k.ReleaseAddressSpace(c, th, child, d)
			})
		},
		func(*Thread) Op { done = true; return Op{} },
	}})
	run(k, k.Now()+10*sim.Millisecond)
	if !done {
		t.Fatal("teardown did not finish")
	}
	if child.MM.PT.Mapped() != 0 {
		t.Fatal("child mappings survived teardown")
	}
	// Parent still owns its 4 frames (refcount back to 1 each).
	if got := k.Alloc.TotalInUse(); got != 4 {
		t.Fatalf("frames in use after child exit = %d, want 4", got)
	}
	if k.Metrics.Counter("sys.exit_mmap") != 1 {
		t.Fatal("exit_mmap not counted")
	}
}

func TestForkWithHugeCopiesEagerly(t *testing.T) {
	k := testKernel()
	parent := k.NewProcess()
	var base pt.VPN
	var child *Process
	parent.Spawn(0, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Mmap(512, true).Populate(-1).Huge() },
		func(th *Thread) Op { base = th.LastAddr; return Fork() },
		func(th *Thread) Op { child = th.LastProc; return Op{} },
	}})
	run(k, 10*sim.Millisecond)
	pe, ok1 := parent.MM.PT.GetHuge(base)
	ce, ok2 := child.MM.PT.GetHuge(base)
	if !ok1 || !ok2 {
		t.Fatal("huge mapping lost across fork")
	}
	if pe.PFN == ce.PFN {
		t.Fatal("huge mapping shared; should be copied eagerly")
	}
	if !pe.Writable || !ce.Writable {
		t.Fatal("eagerly copied huge mapping should stay writable")
	}
	var _ mem.PFN = ce.PFN
}
