package mem

import (
	"testing"
	"testing/quick"

	"latr/internal/topo"
)

func newTestAlloc() *Allocator {
	spec := topo.Custom(2, 4)
	spec.MemPerNodeBytes = 1 << 20 // 256 frames per node
	return NewAllocator(spec)
}

func TestAllocDistinct(t *testing.T) {
	a := newTestAlloc()
	seen := map[PFN]bool{}
	for i := 0; i < 100; i++ {
		pfn, err := a.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		if seen[pfn] {
			t.Fatalf("frame %d allocated twice", pfn)
		}
		seen[pfn] = true
	}
	if a.TotalInUse() != 100 {
		t.Fatalf("TotalInUse = %d", a.TotalInUse())
	}
}

func TestNodesDisjoint(t *testing.T) {
	a := newTestAlloc()
	p0, _ := a.Alloc(0)
	p1, _ := a.Alloc(1)
	if a.NodeOf(p0) != 0 || a.NodeOf(p1) != 1 {
		t.Fatalf("NodeOf wrong: %d→%d, %d→%d", p0, a.NodeOf(p0), p1, a.NodeOf(p1))
	}
}

func TestRefcountLifecycle(t *testing.T) {
	a := newTestAlloc()
	pfn, _ := a.Alloc(0)
	if a.Refs(pfn) != 1 {
		t.Fatalf("fresh frame refs = %d", a.Refs(pfn))
	}
	a.Get(pfn)
	if a.Refs(pfn) != 2 {
		t.Fatalf("after Get refs = %d", a.Refs(pfn))
	}
	a.Put(pfn)
	if a.Refs(pfn) != 1 {
		t.Fatal("Put did not decrement")
	}
	a.Put(pfn)
	if a.Refs(pfn) != 0 {
		t.Fatal("frame not freed at zero refs")
	}
	if a.TotalInUse() != 0 {
		t.Fatalf("TotalInUse = %d after free", a.TotalInUse())
	}
}

func TestFreedFrameIsReused(t *testing.T) {
	a := newTestAlloc()
	pfn, _ := a.Alloc(0)
	a.Put(pfn)
	pfn2, _ := a.Alloc(0)
	if pfn2 != pfn {
		t.Fatalf("free list not LIFO-reused: got %d, want %d", pfn2, pfn)
	}
}

func TestHeldFrameNeverReused(t *testing.T) {
	a := newTestAlloc()
	held, _ := a.Alloc(0)
	a.Get(held) // refs=2, e.g. on a LATR lazy list
	a.Put(held) // refs=1: still held
	for i := 0; i < 255; i++ {
		pfn, err := a.Alloc(0)
		if err != nil {
			break
		}
		if pfn == held {
			t.Fatal("allocator reused a frame with non-zero refcount")
		}
	}
}

func TestOOM(t *testing.T) {
	a := newTestAlloc()
	for i := 0; i < 256; i++ {
		if _, err := a.Alloc(0); err != nil {
			t.Fatalf("premature OOM at %d", i)
		}
	}
	if _, err := a.Alloc(0); err == nil {
		t.Fatal("expected OOM")
	}
	// Other node unaffected.
	if _, err := a.Alloc(1); err != nil {
		t.Fatal(err)
	}
}

// TestAllocContigRefcounts: contiguous frames start at refcount 1 each,
// follow any frames already handed out, and return one by one to the free
// list.
func TestAllocContigRefcounts(t *testing.T) {
	a := newTestAlloc()
	first, _ := a.Alloc(1)
	base, err := a.AllocContig(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if base != first+1 || a.InUse(1) != 5 {
		t.Fatalf("AllocContig after frame %d gave base %d with %d in use, want %d and 5", first, base, a.InUse(1), first+1)
	}
	for pfn := base; pfn < base+4; pfn++ {
		if a.Refs(pfn) != 1 || a.NodeOf(pfn) != 1 {
			t.Fatalf("frame %d: refs %d on node %d, want 1 on node 1", pfn, a.Refs(pfn), a.NodeOf(pfn))
		}
		a.Put(pfn)
	}
	if got, _ := a.Alloc(1); got != base+3 {
		t.Fatalf("Alloc after freeing the run = %d, want the last freed frame %d", got, base+3)
	}
	if _, err := a.AllocContig(1, 256); err == nil {
		t.Fatal("AllocContig past the node's end should fail")
	}
}

func TestBadNode(t *testing.T) {
	a := newTestAlloc()
	if _, err := a.Alloc(9); err == nil {
		t.Fatal("Alloc on bad node should error")
	}
}

func TestPutUnallocatedPanics(t *testing.T) {
	a := newTestAlloc()
	defer func() {
		if recover() == nil {
			t.Fatal("Put on unallocated frame should panic")
		}
	}()
	a.Put(12345)
}

// TestGetPutReleasedFramePanics checks that frame state goes with the last
// Put: Get and Put on a released frame panic like on one never allocated.
func TestGetPutReleasedFramePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(a *Allocator, pfn PFN)
	}{
		{"Get", (*Allocator).Get},
		{"Put", (*Allocator).Put},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newTestAlloc()
			pfn, err := a.Alloc(0)
			if err != nil {
				t.Fatal(err)
			}
			a.Get(pfn)
			a.Put(pfn)
			a.Put(pfn)
			if got := a.Refs(pfn); got != 0 {
				t.Fatalf("Refs after the last Put = %d, want 0", got)
			}
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on a released frame should panic", tc.name)
				}
			}()
			tc.op(a, pfn)
		})
	}
}

func TestPeakTracking(t *testing.T) {
	a := newTestAlloc()
	var pfns []PFN
	for i := 0; i < 50; i++ {
		p, _ := a.Alloc(0)
		pfns = append(pfns, p)
	}
	for _, p := range pfns {
		a.Put(p)
	}
	if a.PeakInUse() != 50 {
		t.Fatalf("PeakInUse = %d, want 50", a.PeakInUse())
	}
	a.ResetPeak()
	if a.PeakInUse() != 0 {
		t.Fatalf("after ResetPeak = %d, want 0", a.PeakInUse())
	}
}

func TestPropertyRefcountNeverReusedWhileHeld(t *testing.T) {
	// Random interleavings of alloc/get/put must never surface a PFN that
	// still has a positive refcount.
	type action struct {
		Op  uint8
		Idx uint8
	}
	if err := quick.Check(func(actions []action) bool {
		a := newTestAlloc()
		live := map[PFN]int{} // expected refcounts
		var handles []PFN
		for _, act := range actions {
			switch act.Op % 3 {
			case 0:
				pfn, err := a.Alloc(topo.NodeID(act.Idx % 2))
				if err != nil {
					continue
				}
				if live[pfn] != 0 {
					return false // reused while held
				}
				live[pfn] = 1
				handles = append(handles, pfn)
			case 1:
				if len(handles) == 0 {
					continue
				}
				p := handles[int(act.Idx)%len(handles)]
				if live[p] > 0 {
					a.Get(p)
					live[p]++
				}
			case 2:
				if len(handles) == 0 {
					continue
				}
				p := handles[int(act.Idx)%len(handles)]
				if live[p] > 0 {
					a.Put(p)
					live[p]--
				}
			}
		}
		for p, want := range live {
			if a.Refs(p) != want {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestWarmChurnAllocatesNothing: once the frames it cycles through have
// been handed out, alloc/get/put churn on both nodes allocates nothing:
// refcounts live in per-node slices that grow only with the bump pointer.
func TestWarmChurnAllocatesNothing(t *testing.T) {
	a := newTestAlloc()
	held := make([]PFN, 96)
	churn := func() {
		for i := range held {
			pfn, err := a.Alloc(topo.NodeID(i % 2))
			if err != nil {
				t.Fatal(err)
			}
			held[i] = pfn
			a.Get(pfn)
		}
		for _, pfn := range held {
			a.Put(pfn)
			a.Put(pfn)
		}
	}
	churn()
	for i := 0; i < 200; i++ {
		if n := testing.AllocsPerRun(1, churn); n != 0 {
			t.Fatalf("warm churn round %d allocates %v objects, want 0", i, n)
		}
	}
	if a.TotalInUse() != 0 {
		t.Fatalf("TotalInUse = %d after churn, want 0", a.TotalInUse())
	}
}
