package kernel

import (
	"errors"

	"latr/internal/mem"
	"latr/internal/obs"
	"latr/internal/pt"
	"latr/internal/sim"
)

// Fork and Copy-on-Write — Table 1's "Ownership" row. Both directions are
// inherently synchronous:
//
//   - fork() write-protects the parent's writable mappings, and every
//     core's TLB must drop the writable entries before either process may
//     continue (otherwise a cached-writable parent entry bypasses CoW);
//   - breaking CoW on a write fault rewires the PTE to a private copy, and
//     the old translation must die system-wide before the write proceeds
//     (otherwise sibling threads keep reading the stale shared frame).
//
// Neither step can use LATR's lazy path, which is exactly why the paper
// lists CoW under "lazy operation possible: no".

// Fork creates a child process whose address space shares the parent's
// frames copy-on-write. The child lands in th.LastProc; spawn threads into
// it to run code there. Huge mappings are copied eagerly (PMD-level CoW
// splitting is out of scope); swap-resident pages are not carried over.
func Fork() Op { return Op{head: opHead{kind: opFork}} }

func (c *Core) doFork(th *Thread) {
	k := c.k
	m := &k.Cost
	parent := th.Proc
	mm := parent.MM

	if mm.VM != nil {
		// Fork inside a guest would need CoW refcounting across both paging
		// levels; the model keeps guest address spaces fork-free.
		c.failSyscall(th, ErrBadArg)
		return
	}
	mm.Sem.AcquireWrite(c, th, func() {
		child := k.NewProcess()
		cmm := child.MM
		cost := m.SyscallEntry + 2*m.VMAOp

		// fail abandons the half-built child: the fork reports a structured
		// error (the child process object is discarded, th.LastProc stays
		// nil) rather than taking the whole simulation down.
		fail := func(op string, err error) {
			mm.Sem.ReleaseWrite()
			c.failSyscall(th, c.internalErr(op, err))
		}
		shared := 0
		for _, v := range mm.Space.VMAs() {
			// Mirror the VMA layout: the child reserves the same ranges
			// (its own address space is fresh, so identical addresses are
			// available; fork semantics need matching VAs).
			if err := cmm.Space.Insert(v); err != nil {
				fail("fork.insert", err)
				return
			}
			for vpn := v.Start; vpn < v.End; vpn++ {
				if he, ok := mm.PT.GetHuge(vpn); ok && vpn == pt.HugeBase(vpn) {
					// Eager copy for huge mappings.
					npfn, err := k.allocHugeFrame(k.Spec.NodeOf(c.ID))
					if err != nil {
						break
					}
					if err := cmm.PT.MapHuge(vpn, npfn, he.Writable); err != nil {
						fail("fork.map_huge", err)
						return
					}
					cost += sim.Time(pt.HugePages) * m.PageCopy / 8
					vpn += pt.HugePages - 1
					continue
				}
				e, ok := mm.PT.Get(vpn)
				if !ok || e.NUMAHint {
					continue
				}
				// Share the frame CoW: bump the refcount, map read-only on
				// both sides.
				k.Alloc.Get(e.PFN)
				if err := cmm.PT.Map(vpn, e.PFN, false); err != nil {
					k.Alloc.Put(e.PFN)
					fail("fork.map", err)
					return
				}
				if e.Writable {
					mm.PT.SetProtection(vpn, false)
				}
				shared++
				cost += m.PTEClearPerPage + k.ReplUpdateRange(c, mm, vpn, 1)
			}
		}
		// The parent's own TLB drops its writable entries now; remote cores
		// via the synchronous path below.
		c.TLB.FlushAll()
		cost += m.TLBFullFlush
		k.met.sysFork.Inc()
		k.met.forkCowSharedPages.Add(uint64(shared))

		// Ownership change: remote writable entries must be gone before
		// fork returns (full flush on every participating core).
		c.syncChange(mm, 0, k.Cost.FullFlushThreshold+1, k.Now(), cost, true, func() {
			mm.Sem.ReleaseWrite()
			th.LastProc = child
			c.opBoundary()
		})
	})
}

// breakCoW resolves a write fault on a read-only page whose VMA is
// writable: a genuine CoW page. Called from handleFault with no locks
// held; takes mmap_sem shared (the PTE swap itself is page-table-lock
// granularity, and the old translation is flushed synchronously).
func (c *Core) breakCoW(th *Thread, vpn pt.VPN, cont func()) {
	k := c.k
	m := &k.Cost
	mm := th.Proc.MM
	mm.Sem.AcquireRead(c, th, func() {
		e, ok := mm.PT.Get(vpn)
		if !ok || e.Writable {
			// Raced with another CoW break.
			mm.Sem.ReleaseRead()
			cont()
			return
		}
		if mm.VM != nil || k.Alloc.Refs(e.PFN) == 1 {
			// Sole owner already (the other side broke its copy) — or a guest
			// frame, which is never CoW-shared since fork is host-only: reuse
			// the frame, upgrading protection in place. Stale read-only
			// entries elsewhere stay correct for reads and upgrade on their
			// own faults.
			hpfn, extra, err := c.framePhys(mm, e.PFN)
			if err != nil {
				th.LastErr = err
				th.LastFault++
				mm.Sem.ReleaseRead()
				cont()
				return
			}
			mm.PT.SetProtection(vpn, true)
			c.TLB.Invalidate(c.pcid(mm), vpn)
			c.TLB.Insert(c.pcid(mm), vpn, hpfn, true)
			k.met.faultCowReuse.Inc()
			c.busy(m.PTEClearPerPage+m.InvlpgLocal+extra+k.ReplUpdateRange(c, mm, vpn, 1), false, func() {
				mm.Sem.ReleaseRead()
				cont()
			})
			return
		}
		// Copy to a private frame and drop our reference on the shared one.
		npfn, err := k.allocFrame(k.Spec.NodeOf(c.ID))
		if err != nil {
			th.LastErr = err
			th.LastFault++
			mm.Sem.ReleaseRead()
			cont()
			return
		}
		old, ok2 := mm.PT.Replace(vpn, npfn)
		if !ok2 {
			// The CoW page vanished under mmap_sem: surface the fault as a
			// structured error and give the private frame back.
			k.Alloc.Put(npfn)
			th.LastErr = c.internalErr("cow.replace", errors.New("page vanished under mmap_sem"))
			th.LastFault++
			mm.Sem.ReleaseRead()
			cont()
			return
		}
		mm.PT.SetProtection(vpn, true)
		c.TLB.Invalidate(c.pcid(mm), vpn)
		k.met.faultCowBreak.Inc()
		// The old shared translation must die system-wide before the
		// write proceeds.
		c.syncChange(mm, vpn, 1, k.Now(), m.PageCopy+m.PTEClearPerPage+k.ReplUpdateRange(c, mm, vpn, 1), false, func() {
			k.Alloc.Put(old.PFN)
			c.TLB.Insert(c.pcid(mm), vpn, npfn, true)
			mm.Sem.ReleaseRead()
			cont()
		})
	})
}

// ReleaseAddressSpace tears down a process's remaining mappings (the
// exit_mmap analogue), dropping frame references through the coherence
// policy's free path. Invoke it via a Call op after a forked process's last
// thread exits; tests use it to verify refcounts drain.
func (k *Kernel) ReleaseAddressSpace(c *Core, th *Thread, p *Process, done func()) {
	mm := p.MM
	mm.Sem.AcquireWrite(c, th, func() {
		var frames []FrameRef
		for _, v := range mm.Space.VMAs() {
			for vpn := v.Start; vpn < v.End; vpn++ {
				if he, ok := mm.PT.GetHuge(vpn); ok && vpn == pt.HugeBase(vpn) {
					mm.PT.UnmapHuge(vpn)
					for j := 0; j < pt.HugePages; j++ {
						frames = append(frames, FrameRef{VPN: vpn + pt.VPN(j), PFN: he.PFN + mem.PFN(j)})
					}
					vpn += pt.HugePages - 1
					continue
				}
				if old, ok := mm.PT.Unmap(vpn); ok {
					frames = append(frames, FrameRef{VPN: vpn, PFN: old.PFN, vm: mm.VM})
				}
			}
			mm.Space.RemoveRange(nil, v.Start, v.End)
			k.notifySwapUnmap(mm, v.Start, int(v.End-v.Start))
			// Exit teardown drops whole page tables; replicas go with them
			// rather than absorbing per-PTE stores, but any invalidation
			// still parked for this range must drain before the frames are
			// handed to the policy's free path.
			k.ReplComplete(mm, v.Start, int(v.End-v.Start))
		}
		c.flushMM(mm)
		// Pages past the full-flush threshold make every policy (IPI
		// handler or LATR sweep) fully flush the remote TLBs, covering all
		// of the torn-down ranges with one state/IPI.
		sp := k.Spans.Begin(obs.KindExit, c.ID, 0, k.Cost.FullFlushThreshold+1, k.Now())
		sp.Mark(obs.PhaseInitiate, c.ID, k.Now(), 0)
		u := Unmap{MM: mm, Start: 0, Pages: k.Cost.FullFlushThreshold + 1, Frames: frames, KeepVMA: true, Span: sp}
		c.SetSpan(sp)
		k.policy.Munmap(c, u, func() {
			c.SetSpan(nil)
			sp.Release(k.Now())
			mm.Sem.ReleaseWrite()
			k.met.sysExitMmap.Inc()
			done()
		})
	})
}

// vmWritable reports whether the VMA covering vpn permits writes (the CoW
// discriminator: present + !PTE.Writable + vmWritable = CoW page).
func vmWritable(mm *MM, vpn pt.VPN) bool {
	v, ok := mm.Space.Find(vpn)
	return ok && v.Writable
}
