package kernel

import (
	"latr/internal/pt"
)

// NUMAHandler receives NUMA-hint faults (accesses to pages that the
// AutoNUMA scanner marked PROT_NONE). The AutoNUMA implementation in
// internal/numa decides whether to migrate. cont resumes the faulting
// access; the handler must arrange for the page to become accessible
// before (or as part of) calling cont.
type NUMAHandler interface {
	OnHintFault(c *Core, th *Thread, vpn pt.VPN, cont func())
}

// SetNUMAHandler installs the AutoNUMA fault handler.
func (k *Kernel) SetNUMAHandler(h NUMAHandler) { k.numa = h }

// SwapHandler receives faults on pages that may be swap-resident. It
// returns false when the page is not on the swap device (the fault then
// proceeds as ordinary demand paging); returning true means the handler
// owns the fault and will call cont after the swap-in.
type SwapHandler interface {
	OnSwapFault(c *Core, th *Thread, vpn pt.VPN, cont func()) bool
}

// SetSwapHandler installs the page-swap fault handler.
func (k *Kernel) SetSwapHandler(h SwapHandler) { k.swap = h }

// SwapUnmapper is an optional SwapHandler extension: the kernel calls
// OnUnmap whenever a VA range leaves the address space (munmap, the mremap
// source range, exit teardown) so the handler can discard swap-resident
// copies and release their device frames. Without it, a later mmap that
// reuses the VA would wrongly satisfy its first touch from stale swap
// contents instead of demand-zero memory.
type SwapUnmapper interface {
	OnUnmap(mm *MM, start pt.VPN, pages int)
}

// notifySwapUnmap forwards a VA-range removal to the swap handler, if one
// is installed and cares.
func (k *Kernel) notifySwapUnmap(mm *MM, start pt.VPN, pages int) {
	if su, ok := k.swap.(SwapUnmapper); ok {
		su.OnUnmap(mm, start, pages)
	}
}

// NUMAHandlerInstalled reports whether AutoNUMA is active.
func (k *Kernel) NUMAHandlerInstalled() bool { return k.numa != nil }

// handleFault resolves the faulting access th.op records (faultVPN,
// faultEntry). The PageFaultEntry cost has already been charged by the
// caller; handleFault runs at a segment boundary, and the touch resumes at
// th.op.next once the fault is resolved.
func (c *Core) handleFault(th *Thread) {
	k := c.k
	mm := th.Proc.MM
	vpn, e, write := th.op.faultVPN, th.op.faultEntry, th.op.write

	// NUMA-hint fault: present but marked for sampling.
	if e.Present && e.NUMAHint {
		k.Metrics.Inc("fault.numa_hint", 1)
		if k.numa != nil {
			k.numa.OnHintFault(c, th, vpn, c.then(stepTouch))
			return
		}
		// No AutoNUMA installed: clear the hint and continue.
		mm.PT.SetNUMAHint(vpn, false)
		c.touchPages(th)
		return
	}

	// Write-protection fault on a present page: a CoW page if the VMA
	// permits writes (fork shared it read-only), otherwise an application
	// error against an mprotect-ed region.
	if e.Present && write && !e.Writable {
		if vmWritable(mm, vpn) {
			c.breakCoW(th, vpn, c.then(stepTouch))
			return
		}
		k.Metrics.Inc("fault.prot", 1)
		th.LastFault++
		c.touchPages(th)
		return
	}

	// Swap-resident pages take a major fault through the swap handler.
	if k.swap != nil && k.swap.OnSwapFault(c, th, vpn, c.then(stepTouch)) {
		k.Metrics.Inc("fault.major", 1)
		return
	}

	// Demand-paging (or segfault) path: needs mmap_sem shared.
	mm.Sem.AcquireRead(c, th, c.then(stepFaultGrant))
}

// faultGrant is the demand-paging path, run with mmap_sem held shared.
func (c *Core) faultGrant(th *Thread) {
	k := c.k
	mm := th.Proc.MM
	vpn := th.op.faultVPN
	// Re-check under the lock: another thread may have mapped it while we
	// waited.
	if e2, ok := mm.PT.Get(vpn); ok && !e2.NUMAHint {
		hpfn, extra, err := c.framePhys(mm, e2.PFN)
		if err != nil {
			c.faultFailed(th, err)
			return
		}
		c.TLB.Insert(c.pcid(mm), vpn, hpfn, e2.Writable)
		hook := k.policy.OnPageTouch(c, mm, vpn)
		c.busy(hook+extra, false, c.then(stepFaultDone))
		return
	}
	vma, ok := mm.Space.Find(vpn)
	if !ok {
		// Unmapped address: segmentation fault. Programs observe it in
		// th.LastFault (§4.4: post-sweep accesses to freed ranges).
		k.Metrics.Inc("fault.segv", 1)
		th.LastFault++
		c.faultDone(th)
		return
	}
	// First touch: allocate on the faulting core's node (a guest-frame
	// allocation, backed through the EPT, for guest address spaces).
	pfn, err := k.allocFrameFor(mm, k.Spec.NodeOf(c.ID))
	if err != nil {
		c.faultFailed(th, err)
		return
	}
	if err := mm.PT.Map(vpn, pfn, vma.Writable); err != nil {
		// Mapping a page the re-check just said was absent failed: an
		// inconsistency between the page table and the VA space. Fail the
		// access structurally and return the unused frame.
		k.putFrame(mm, pfn)
		c.faultFailed(th, c.internalErr("fault.map", err))
		return
	}
	hpfn, extra, err := c.framePhys(mm, pfn)
	if err != nil {
		c.faultFailed(th, err)
		return
	}
	c.TLB.Insert(c.pcid(mm), vpn, hpfn, vma.Writable)
	k.Metrics.Inc("fault.demand", 1)
	hook := k.policy.OnPageTouch(c, mm, vpn)
	hook += k.ReplUpdateRange(c, mm, vpn, 1)
	c.busy(k.Cost.MmapSetupPerPage+hook+extra, false, c.then(stepFaultDone))
}

// faultFailed fails the faulting access with err and resumes the touch.
func (c *Core) faultFailed(th *Thread, err error) {
	th.LastErr = err
	th.LastFault++
	c.faultDone(th)
}

// faultDone drops mmap_sem and resumes the touch after the faulting page.
func (c *Core) faultDone(th *Thread) {
	th.Proc.MM.Sem.ReleaseRead()
	c.touchPages(th)
}
