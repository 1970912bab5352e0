package kernel

import (
	"errors"
	"fmt"

	"latr/internal/mem"
	"latr/internal/obs"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/topo"
	"latr/internal/vm"
)

// Syscall errors surfaced to programs via th.LastErr.
var (
	ErrNoMemory = errors.New("kernel: out of physical memory")
	ErrNoVMA    = errors.New("kernel: address range not mapped")
	ErrBadArg   = errors.New("kernel: invalid syscall argument")
	// ErrInternal marks a kernel-state inconsistency detected on a
	// user-reachable syscall/fault path (e.g. the VA allocator handing out
	// an already-mapped range). The operation fails structurally — counted
	// in metrics, visible in the timeline, delivered via th.LastErr — instead
	// of crashing the whole simulation, so long chaos runs survive and
	// report. Match with errors.Is(err, ErrInternal).
	ErrInternal = errors.New("kernel: internal inconsistency")
)

// internalErr builds the structured error for an unexpected inconsistency
// on a user-reachable path and records it in metrics and the timeline. True
// invariant breaches in non-recoverable machinery (scheduler segment state,
// refcounts, virtual time) still panic.
func (c *Core) internalErr(op string, err error) error {
	k := c.k
	k.met.internalErrors.Inc()
	perOp := k.Metrics.NewCounter("error.internal." + op)
	perOp.Inc()
	k.Spans.Note(k.Now(), c.ID, "error", "%s: %v", op, err)
	return fmt.Errorf("%w: %s: %v", ErrInternal, op, err)
}

func (c *Core) doMmap(th *Thread, o Op) {
	mm := th.Proc.MM
	if o.pages() <= 0 {
		c.failSyscall(th, ErrBadArg)
		return
	}
	if o.has(opHuge) && (o.pages()%pt.HugePages != 0 || !o.has(opPopulate)) {
		c.failSyscall(th, ErrBadArg)
		return
	}
	if o.has(opHuge) && mm.VM != nil {
		// Guest huge mappings would need PMD-level EPT backing; out of
		// scope for the two-level model.
		c.failSyscall(th, ErrBadArg)
		return
	}
	th.op.mmap = o
	mm.Sem.AcquireWrite(c, th, c.then(stepMmapGrant))
}

// mmapGrant maps th.op.mmap with mmap_sem held exclusive.
func (c *Core) mmapGrant(th *Thread) {
	k := c.k
	m := &k.Cost
	mm := th.Proc.MM
	o := &th.op.mmap
	var start pt.VPN
	var err error
	if o.has(opHuge) {
		start, err = mm.Space.ReserveAligned(o.pages(), pt.HugePages)
	} else {
		start, err = mm.Space.Reserve(o.pages())
	}
	if err != nil {
		mm.Sem.ReleaseWrite()
		c.failSyscall(th, err)
		return
	}
	if err := mm.Space.Insert(vm.VMA{Start: start, End: start + pt.VPN(o.pages()), Writable: o.has(opWrite)}); err != nil {
		// Reserve handed out an overlapping range.
		mm.Sem.ReleaseWrite()
		c.failSyscall(th, c.internalErr("mmap.insert", err))
		return
	}
	cost := m.SyscallEntry + m.VMAOp
	node := k.Spec.NodeOf(c.ID)
	if o.arg >= 0 { // the node Populate named
		node = topo.NodeID(o.arg)
	}
	switch {
	case o.has(opHuge):
		for i := 0; i < o.pages()/pt.HugePages; i++ {
			base := start + pt.VPN(i*pt.HugePages)
			pfn, err := k.allocHugeFrame(node)
			if err != nil {
				mm.Sem.ReleaseWrite()
				c.failSyscall(th, err)
				return
			}
			if err := mm.PT.MapHuge(base, pfn, o.has(opWrite)); err != nil {
				mm.Sem.ReleaseWrite()
				c.failSyscall(th, c.internalErr("mmap.map_huge", err))
				return
			}
		}
		// Wiring one 2 MB mapping costs roughly one PMD entry plus the
		// (cheap, contiguous) frame clear amortisation.
		cost += sim.Time(o.pages()/pt.HugePages) * 8 * m.MmapSetupPerPage
		cost += k.ReplUpdateRange(c, mm, start, o.pages())
		k.met.sysMmapHuge.Inc()
	case o.has(opPopulate):
		for i := 0; i < o.pages(); i++ {
			pfn, err := k.allocFrameFor(mm, node)
			if err != nil {
				mm.Sem.ReleaseWrite()
				c.failSyscall(th, err)
				return
			}
			if err := mm.PT.Map(start+pt.VPN(i), pfn, o.has(opWrite)); err != nil {
				mm.Sem.ReleaseWrite()
				c.failSyscall(th, c.internalErr("mmap.map", err))
				return
			}
		}
		cost += sim.Time(o.pages()) * m.MmapSetupPerPage
		cost += k.ReplUpdateRange(c, mm, start, o.pages())
	}
	th.op.addr = start
	c.busy(cost, false, c.then(stepMmapDone))
}

// doMunmap implements munmap (keepVMA=false) and madvise-style frees
// (keepVMA=true). The flow mirrors Fig 2: clear PTEs, invalidate the local
// TLB, then hand remote coherence and memory release to the policy.
func (c *Core) doMunmap(th *Thread, addr pt.VPN, pages int, keepVMA, forceSync bool) {
	if pages <= 0 {
		c.failSyscall(th, ErrBadArg)
		return
	}
	op := th.op
	op.addr, op.npages, op.keepVMA, op.forceSync = addr, pages, keepVMA, forceSync
	op.t0 = c.k.Now()
	th.Proc.MM.Sem.AcquireWrite(c, th, c.then(stepMunmapGrant))
}

// munmapGrant clears the PTEs of th.op's range and invalidates the local
// TLB, with mmap_sem held exclusive.
func (c *Core) munmapGrant(th *Thread) {
	k := c.k
	m := &k.Cost
	mm := th.Proc.MM
	op := th.op
	addr, pages, keepVMA := op.addr, op.npages, op.keepVMA
	if splitsHuge(mm, addr) || splitsHuge(mm, addr+pt.VPN(pages)) {
		// Partial unmap of a huge mapping: splitting is not modelled
		// (real THP would split the PMD first). Reject it before any VMA,
		// PTE or TLB line changes.
		mm.Sem.ReleaseWrite()
		c.failSyscall(th, ErrBadArg)
		return
	}
	if !keepVMA {
		op.vmas = mm.Space.RemoveRange(op.vmas[:0], addr, addr+pt.VPN(pages))
		if len(op.vmas) == 0 {
			mm.Sem.ReleaseWrite()
			c.failSyscall(th, ErrNoVMA)
			return
		}
		k.notifySwapUnmap(mm, addr, pages)
	}
	// The policy keeps the frame list until the frames are reclaimed, so
	// each unmap gets its own, sized once; ReleaseFrames takes it back.
	frames := k.frameList(pages)
	var replCost sim.Time
	hugeEntries := 0
	for i := 0; i < pages; i++ {
		vpn := addr + pt.VPN(i)
		if vpn == pt.HugeBase(vpn) {
			if he, ok := mm.PT.GetHuge(vpn); ok {
				mm.PT.UnmapHuge(vpn)
				hugeEntries++
				for j := 0; j < pt.HugePages; j++ {
					frames = append(frames, FrameRef{VPN: vpn + pt.VPN(j), PFN: he.PFN + mem.PFN(j)})
					replCost += k.ReplUnmapPTE(c, mm, vpn+pt.VPN(j),
						pt.Entry{PFN: he.PFN + mem.PFN(j), Present: true, Writable: he.Writable})
				}
				i += pt.HugePages - 1
				continue
			}
		}
		if old, ok := mm.PT.Unmap(vpn); ok {
			frames = append(frames, FrameRef{VPN: vpn, PFN: old.PFN, vm: mm.VM})
			replCost += k.ReplUnmapPTE(c, mm, vpn, old)
		}
	}
	// A huge mapping clears one PMD entry, not 512 PTEs.
	pteEntries := pages - hugeEntries*(pt.HugePages-1)
	// Local invalidation, mirroring the remote rule: full flush past the
	// 33-page threshold (scoped to the mm's VPID — a guest's full flush
	// cannot reach host or sibling-VM entries).
	pcid := c.pcid(mm)
	if pages > m.FullFlushThreshold {
		c.flushMM(mm)
	} else {
		c.TLB.InvalidateRange(pcid, addr, addr+pt.VPN(pages))
	}
	cost := m.SyscallEntry + m.VMAOp +
		sim.Time(pteEntries)*m.PTEClearPerPage +
		m.InvalidateCost(pteEntries) +
		sim.Time(mm.CPUMask.Count())*m.MunmapContentionPerCore +
		replCost
	kind := obs.KindMunmap
	if keepVMA {
		kind = obs.KindMadvise
	}
	sp := k.Spans.Begin(kind, c.ID, addr, pages, op.t0)
	if mm.VM != nil {
		sp.SetLevel(1)
	}
	op.frames, op.span, op.tB = frames, sp, k.Now()
	// The PTE/TLB phase runs with the page-table lock held and interrupts
	// off; incoming shootdown IPIs queue behind it.
	c.busy(cost, true, c.then(stepMunmapCleared))
}

// munmapCleared hands remote coherence and memory release for th.op's
// range to the policy once the PTE/TLB phase is paid.
// splitsHuge reports whether vpn lies strictly inside a huge mapping of
// mm, so that a range boundary at vpn would split it.
func splitsHuge(mm *MM, vpn pt.VPN) bool {
	if vpn == pt.HugeBase(vpn) {
		return false
	}
	_, ok := mm.PT.GetHuge(vpn)
	return ok
}

func (c *Core) munmapCleared(th *Thread) {
	k := c.k
	op := th.op
	op.t1 = k.Now()
	sp := op.span
	sp.Mark(obs.PhaseInitiate, c.ID, op.tB, op.t1-op.tB)
	u := Unmap{MM: th.Proc.MM, Start: op.addr, Pages: op.npages, Frames: op.frames, KeepVMA: op.keepVMA, ForceSync: op.forceSync, Span: sp}
	op.frames = nil
	c.SetSpan(sp)
	k.policy.Munmap(c, u, c.then(stepMunmapDone))
}

// munmapDone completes munmap/madvise once the policy is done.
func (c *Core) munmapDone(th *Thread) {
	k := c.k
	op := th.op
	t2 := k.Now()
	c.SetSpan(nil)
	op.span.Release(t2)
	op.span = nil
	th.Proc.MM.Sem.ReleaseWrite()
	th.LastAddr = op.addr
	if op.keepVMA {
		k.met.sysMadvise.Inc()
	} else {
		k.met.sysMunmap.Inc()
	}
	k.met.munmapLatency.Observe(t2 - op.t0)
	k.met.munmapShootdown.Observe(t2 - op.t1)
	c.opBoundary()
}

func (c *Core) doMprotect(th *Thread, o Op) {
	k := c.k
	m := &k.Cost
	mm := th.Proc.MM
	if o.pages() <= 0 {
		c.failSyscall(th, ErrBadArg)
		return
	}
	t0 := k.Now()
	mm.Sem.AcquireWrite(c, th, func() {
		// Update the VMA flags (splitting straddlers), as mprotect does —
		// the VMA writability is what distinguishes a CoW page from a
		// genuinely write-protected one.
		th.op.vmas = mm.Space.RemoveRange(th.op.vmas[:0], o.addr(), o.addr()+pt.VPN(o.pages()))
		for _, piece := range th.op.vmas {
			piece.Writable = o.has(opWrite)
			if err := mm.Space.Insert(piece); err != nil {
				// Re-inserting a piece RemoveRange just handed back failed;
				// the remaining pieces stay out of the space, which the
				// structured error makes observable.
				mm.Sem.ReleaseWrite()
				c.failSyscall(th, c.internalErr("mprotect.insert", err))
				return
			}
		}
		changed := 0
		for i := 0; i < o.pages(); i++ {
			if mm.PT.SetProtection(o.addr()+pt.VPN(i), o.has(opWrite)) {
				changed++
			}
		}
		pcid := c.pcid(mm)
		if o.pages() > m.FullFlushThreshold {
			c.flushMM(mm)
		} else {
			c.TLB.InvalidateRange(pcid, o.addr(), o.addr()+pt.VPN(o.pages()))
		}
		cost := m.SyscallEntry + m.VMAOp + sim.Time(o.pages())*m.PTEClearPerPage + m.InvalidateCost(o.pages()) +
			k.ReplUpdateRange(c, mm, o.addr(), o.pages())
		// Permission changes must reach the whole system before the call
		// returns — no lazy option (Table 1).
		c.syncChange(mm, o.addr(), o.pages(), t0, cost, true, func() {
			mm.Sem.ReleaseWrite()
			k.met.sysMprotect.Inc()
			k.met.mprotectLatency.Observe(k.Now() - t0)
			c.opBoundary()
		})
	})
}

func (c *Core) doMremap(th *Thread, o Op) {
	k := c.k
	m := &k.Cost
	mm := th.Proc.MM
	if o.pages() <= 0 {
		c.failSyscall(th, ErrBadArg)
		return
	}
	mm.Sem.AcquireWrite(c, th, func() {
		removed := mm.Space.RemoveRange(th.op.vmas[:0], o.addr(), o.addr()+pt.VPN(o.pages()))
		th.op.vmas = removed
		if len(removed) == 0 {
			mm.Sem.ReleaseWrite()
			c.failSyscall(th, ErrNoVMA)
			return
		}
		k.notifySwapUnmap(mm, o.addr(), o.pages())
		newStart, err := mm.Space.Reserve(o.pages())
		if err != nil {
			mm.Sem.ReleaseWrite()
			c.failSyscall(th, err)
			return
		}
		writable := removed[0].Writable
		if err := mm.Space.Insert(vm.VMA{Start: newStart, End: newStart + pt.VPN(o.pages()), Writable: writable, Kind: removed[0].Kind}); err != nil {
			mm.Sem.ReleaseWrite()
			c.failSyscall(th, c.internalErr("mremap.insert", err))
			return
		}
		moved := 0
		for i := 0; i < o.pages(); i++ {
			if old, ok := mm.PT.Unmap(o.addr() + pt.VPN(i)); ok {
				if err := mm.PT.Map(newStart+pt.VPN(i), old.PFN, old.Writable); err != nil {
					mm.Sem.ReleaseWrite()
					c.failSyscall(th, c.internalErr("mremap.map", err))
					return
				}
				moved++
			}
		}
		pcid := c.pcid(mm)
		c.TLB.InvalidateRange(pcid, o.addr(), o.addr()+pt.VPN(o.pages()))
		// Remap is synchronous under every policy (Table 1), so both the
		// source clears and the destination installs propagate eagerly.
		cost := m.SyscallEntry + 2*m.VMAOp + sim.Time(moved)*(m.PTEClearPerPage+m.MmapSetupPerPage) + m.InvalidateCost(o.pages()) +
			k.ReplUpdateRange(c, mm, o.addr(), o.pages()) + k.ReplUpdateRange(c, mm, newStart, o.pages())
		// The old translation must die system-wide before the call
		// returns.
		c.syncChange(mm, o.addr(), o.pages(), k.Now(), cost, true, func() {
			k.ReleaseVA(mm, o.addr(), o.pages())
			mm.Sem.ReleaseWrite()
			th.LastAddr = newStart
			k.met.sysMremap.Inc()
			c.opBoundary()
		})
	})
}

// failSyscall records the error and completes the op with a nominal cost.
func (c *Core) failSyscall(th *Thread, err error) {
	th.LastErr = err
	c.busy(c.k.Cost.SyscallEntry, false, c.then(stepOpBoundary))
}

// syncChange makes a change to [start, start+pages) of mm coherent before
// the caller goes on, as Table 1's synchronous rows require: it opens a
// KindSync span at opened, charges cost on c (with interrupts off when
// irqOff), runs the installed policy's SyncChange with the span as c's
// current span, then releases the span and runs tail.
func (c *Core) syncChange(mm *MM, start pt.VPN, pages int, opened, cost sim.Time, irqOff bool, tail func()) {
	k := c.k
	sp := k.Spans.Begin(obs.KindSync, c.ID, start, pages, opened)
	if mm.VM != nil {
		sp.SetLevel(1)
	}
	tB := k.Now()
	c.busy(cost, irqOff, func() {
		sp.Mark(obs.PhaseInitiate, c.ID, tB, k.Now()-tB)
		c.SetSpan(sp)
		k.policy.SyncChange(c, mm, start, pages, func() {
			c.SetSpan(nil)
			sp.Release(k.Now())
			tail()
		})
	})
}
