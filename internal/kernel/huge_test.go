package kernel

import (
	"errors"
	"fmt"
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

// TestPartialHugeUnmapRejected: an munmap or madvise whose range starts
// or ends strictly inside a huge mapping would need a PMD split, which is
// not modelled, so it fails with ErrBadArg before it changes anything:
// the VMA list, the frames in use, the huge PTE and the cached TLB lines
// stay as they were. A range covering the whole mapping still succeeds.
func TestPartialHugeUnmapRejected(t *testing.T) {
	k := testKernel()
	p := k.NewProcess()
	mm, cached := p.MM, k.Cores[0].TLB
	type state struct {
		vmas                 string
		frames               int64
		huge, hugeLine, line bool
		lines                int
	}
	var small, base pt.VPN
	snap := func() state {
		_, huge := mm.PT.GetHuge(base)
		return state{
			vmas:     fmt.Sprint(mm.Space.VMAs()),
			frames:   k.Alloc.TotalInUse(),
			huge:     huge,
			hugeLine: cached.HasHuge(tlb.Tag{}, base),
			line:     cached.Has(tlb.Tag{}, small),
			lines:    cached.Len(),
		}
	}
	rejected := []struct {
		name string
		op   func() Op
	}{
		{"munmap ending inside, from a small mapping below", func() Op { return Munmap(small, int(base-small)+88) }},
		{"munmap starting inside", func() Op { return Munmap(base+256, 256) }},
		{"munmap ending inside, from the base", func() Op { return Munmap(base, 100) }},
		{"madvise inside", func() Op { return Madvise(base+100, 50) }},
	}
	var before state
	var after []state
	var errs []error
	var wholeErr error
	steps := []func(*Thread) Op{
		func(*Thread) Op { return Mmap(4, true).Populate(-1) },
		func(th *Thread) Op { small = th.LastAddr; return Mmap(512, true).Populate(-1).Huge() },
		func(th *Thread) Op { base = th.LastAddr; return TouchRange(small, 4, false) },
		func(*Thread) Op { return TouchRange(base, 8, false) },
	}
	for i, c := range rejected {
		steps = append(steps, func(th *Thread) Op {
			if i == 0 {
				before = snap()
			} else {
				errs, after = append(errs, th.LastErr), append(after, snap())
			}
			return c.op()
		})
	}
	steps = append(steps,
		func(th *Thread) Op {
			errs, after = append(errs, th.LastErr), append(after, snap())
			return Munmap(base, 512)
		},
		func(th *Thread) Op { wholeErr = th.LastErr; return Op{} },
	)
	p.Spawn(0, &script{steps: steps})
	run(k, 20*sim.Millisecond)

	if small >= base || !before.huge || !before.hugeLine || !before.line || before.frames != 516 {
		t.Fatalf("setup: small %#x, huge %#x, state %+v", uint64(small), uint64(base), before)
	}
	if len(errs) != len(rejected) {
		t.Fatalf("ran %d of %d rejected cases", len(errs), len(rejected))
	}
	for i, c := range rejected {
		if !errors.Is(errs[i], ErrBadArg) {
			t.Errorf("%s: err = %v, want ErrBadArg", c.name, errs[i])
		}
		if after[i] != before {
			t.Errorf("%s changed state:\n got %+v\nwant %+v", c.name, after[i], before)
		}
	}
	if wholeErr != nil {
		t.Fatalf("whole-mapping munmap: %v", wholeErr)
	}
	if _, ok := mm.PT.GetHuge(base); ok || k.Alloc.TotalInUse() != 4 || len(mm.Space.VMAs()) != 1 {
		t.Fatalf("whole-mapping munmap left huge=%v, %d frames in use, VMAs %v",
			ok, k.Alloc.TotalInUse(), mm.Space.VMAs())
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
