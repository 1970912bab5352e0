package kernel

import (
	"fmt"

	"latr/internal/mem"
	"latr/internal/obs"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/tlb"
	"latr/internal/topo"
	"latr/internal/vm"
)

// Two-level (virtualized) translation coherence — the regime Yan et al.
// ("Hardware Translation Coherence for Virtualized Systems") show amplifies
// shootdown cost 2–4×: guest page tables map guest-virtual to
// guest-physical frames, an EPT-style nested table maps guest-physical to
// host-physical frames, and every TLB caches the *combined* gVA→hPA
// translation tagged with the VM's VPID. Coherence now has two
// independent initiators: the guest kernel (munmap/mprotect inside the VM,
// amplified by VM exits on both sides of every IPI) and the hypervisor
// (ballooning, migration, teardown — which must kill combined entries it
// never created).

// HostMode selects how the hypervisor keeps combined TLB entries coherent
// when it reclaims backing frames (ballooning). Policies declare theirs
// through the optional HostCoherent interface; plain policies default to
// HostSync.
type HostMode int

// Host coherence modes.
const (
	// HostSync quiesces synchronously: IPI every core that may cache the
	// VM's entries, INVVPID, then free — the Linux/KVM baseline.
	HostSync HostMode = iota
	// HostLazy parks reclaimed backings and defers both the flush and the
	// frame release by Cost.HostLazyReclaim — LATR's lazy reclamation
	// applied at the hypervisor level (host-LATR).
	HostLazy
	// HostHardware invalidates precisely over the coherence fabric with no
	// interrupts and no VM exits (HATRIC), freeing after the propagation
	// delay.
	HostHardware
	// HostSkipInval is a MUTANT: backing frames are freed with no
	// combined-entry invalidation at all. The two-level auditor must catch
	// it (stale-use on a guest re-touch, frame-reuse on reallocation).
	HostSkipInval
	// HostLeakEPT is a MUTANT: invalidation is correct but the reclaimed
	// backing frames are never released. Frame accounting must catch it
	// (kernel frames in use exceed the flat model's).
	HostLeakEPT
)

// HostCoherent is an optional Policy extension declaring the hypervisor's
// coherence mode for host-initiated reclamation.
type HostCoherent interface {
	HostMode() HostMode
}

// hostMode resolves the installed policy's host-level coherence mode.
func (k *Kernel) hostMode() HostMode {
	if hc, ok := k.policy.(HostCoherent); ok {
		return hc.HostMode()
	}
	return HostSync
}

// VM is one virtual machine: a VPID, a guest-physical address space, and
// the nested table backing it with host frames. Guest processes
// (NewGuestProcess) run ordinary programs whose every translation goes
// through both levels.
type VM struct {
	ID    int
	Name  string
	VPID  tlb.VPID
	EPT   *pt.EPT
	GPhys *vm.GuestPhys

	k         *Kernel
	mms       []*MM
	cursor    int
	destroyed bool
}

// Destroyed reports whether the VM has been torn down.
func (v *VM) Destroyed() bool { return v.destroyed }

// NewVM creates a virtual machine with guestFrames guest-physical frames.
// VPIDs are recycled LIFO from destroyed VMs — deliberately, so the
// VPID-reuse-after-teardown scenarios exercise tag collisions.
func (k *Kernel) NewVM(name string, guestFrames int) *VM {
	var vpid tlb.VPID
	if n := len(k.freeVPIDs); n > 0 {
		vpid = k.freeVPIDs[n-1]
		k.freeVPIDs = k.freeVPIDs[:n-1]
	} else {
		k.nextVPID++
		vpid = k.nextVPID
	}
	k.nextVMID++
	v := &VM{
		ID:    k.nextVMID,
		Name:  name,
		VPID:  vpid,
		EPT:   pt.NewEPT(),
		GPhys: vm.NewGuestPhys(guestFrames),
		k:     k,
	}
	k.vms = append(k.vms, v)
	k.virtUsed = true
	k.Metrics.Inc("virt.vm_starts", 1)
	return v
}

// VMs returns every VM created so far (including destroyed ones), in
// creation order.
func (k *Kernel) VMs() []*VM {
	out := make([]*VM, len(k.vms))
	copy(out, k.vms)
	return out
}

// NewGuestProcess creates a process inside v: its page table maps
// guest-virtual to guest-physical frames and its TLB entries carry v's
// VPID.
func (k *Kernel) NewGuestProcess(v *VM) *Process {
	if v.destroyed {
		panic(fmt.Sprintf("kernel: new process in destroyed VM %s", v.Name))
	}
	p := k.NewProcess()
	p.MM.VM = v
	v.mms = append(v.mms, p.MM)
	return p
}

// hostPFN translates a page-table frame reference to the host frame an
// access through it reaches. Host address spaces are the identity;
// guest frames go through the EPT (ok=false is an EPT violation).
func (k *Kernel) hostPFN(mm *MM, pfn mem.PFN) (mem.PFN, bool) {
	if mm.VM == nil {
		return pfn, true
	}
	return mm.VM.EPT.Lookup(pfn)
}

// framePhys resolves a page-table frame to its host frame on the access
// path, charging the two-dimensional walk surcharge and — when the host
// reclaimed the backing — the EPT-violation trap that wires a fresh one.
func (c *Core) framePhys(mm *MM, pfn mem.PFN) (mem.PFN, sim.Time, error) {
	k := c.k
	if mm.VM == nil {
		return pfn, 0, nil
	}
	extra := k.Cost.NestedWalkExtra
	if hpfn, ok := mm.VM.EPT.Lookup(pfn); ok {
		return hpfn, extra, nil
	}
	// EPT violation: exit to the host, back the guest frame, resume. Not a
	// guest-visible fault — the page is simply slow on this touch.
	extra += k.Cost.EPTViolation
	k.Metrics.Inc("virt.ept_violations", 1)
	hpfn, err := k.allocFrame(k.Spec.NodeOf(c.ID))
	if err != nil {
		return 0, extra, err
	}
	if err := mm.VM.EPT.Back(pfn, hpfn); err != nil {
		panic(fmt.Sprintf("kernel: re-backing gPFN %d: %v", pfn, err))
	}
	return hpfn, extra, nil
}

// backsLine reports whether a page-table frame reference currently
// resolves to the host frame a TLB line caches — the staleness test for
// cached translations (identity on bare metal, through the EPT for
// guests).
func (c *Core) backsLine(mm *MM, ptPFN, linePFN mem.PFN) bool {
	h, ok := c.k.hostPFN(mm, ptPFN)
	return ok && h == linePFN
}

// allocFrameFor allocates the frame a page-table entry of mm will store:
// a host frame for host address spaces, a guest-physical frame (backed
// eagerly through the EPT) for guests. Reusing a guest frame whose backing
// survived enforces the two-level reuse invariant: no TLB may still hold a
// combined entry to the backing when the guest frame is handed back out.
func (k *Kernel) allocFrameFor(mm *MM, node topo.NodeID) (mem.PFN, error) {
	if mm.VM == nil {
		return k.allocFrame(node)
	}
	v := mm.VM
	gpfn, err := v.GPhys.Alloc()
	if err != nil {
		return 0, err
	}
	if hpfn, ok := v.EPT.Lookup(gpfn); ok {
		if k.Tracker != nil {
			k.checkFrameReuse(hpfn)
		}
		return gpfn, nil
	}
	hpfn, err := k.allocFrame(node)
	if err != nil {
		v.GPhys.Put(gpfn)
		return 0, err
	}
	if err := v.EPT.Back(gpfn, hpfn); err != nil {
		panic(fmt.Sprintf("kernel: backing fresh gPFN %d: %v", gpfn, err))
	}
	return gpfn, nil
}

// putFrame returns a frame allocated by allocFrameFor on an error path:
// guest frames go back to the guest pool (the backing stays), host frames
// to the machine allocator.
func (k *Kernel) putFrame(mm *MM, pfn mem.PFN) {
	if mm.VM != nil {
		mm.VM.GPhys.Put(pfn)
		return
	}
	k.Alloc.Put(pfn)
}

// vmCoreMask is the union of the VM's address-space cpumasks: every core
// that may cache combined entries with the VM's VPID.
func (k *Kernel) vmCoreMask(v *VM) topo.CoreMask {
	var mask topo.CoreMask
	for _, mm := range v.mms {
		mask = mask.Or(mm.CPUMask)
	}
	return mask
}

// invvpidAll drops v's combined entries from every core's TLB, injecting
// the tagged-flush cost into cores that are currently running.
func (k *Kernel) invvpidAll(v *VM) {
	for _, core := range k.Cores {
		core.TLB.FlushVPID(v.VPID)
		core.inject(k.Cost.VPIDFlush)
	}
}

// BalloonReclaim reclaims up to n backed guest-physical frames from v —
// host memory pressure (balloon inflation / host swap-out). Live guest
// data may lose its backing; the guest transparently re-faults it later
// through an EPT violation. How the combined TLB entries die follows the
// policy's HostMode. done runs when the initiating host thread may
// continue.
func (k *Kernel) BalloonReclaim(c *Core, v *VM, n int, done func()) {
	m := &k.Cost
	backed := v.EPT.BackedGuestFrames()
	if n > len(backed) {
		n = len(backed)
	}
	if n <= 0 || v.destroyed {
		c.busy(m.SyscallEntry, false, done)
		return
	}
	// A cursor over the ascending backing list makes repeated balloon calls
	// reclaim different pages, deterministically at any worker count.
	start := v.cursor % len(backed)
	v.cursor += n
	hfreed := make([]mem.PFN, 0, n)
	for i := 0; i < n; i++ {
		gpfn := backed[(start+i)%len(backed)]
		hpfn, ok := v.EPT.Unback(gpfn)
		if !ok {
			panic(fmt.Sprintf("kernel: balloon victim gPFN %d not backed", gpfn))
		}
		hfreed = append(hfreed, hpfn)
	}
	k.Metrics.Inc("virt.balloon_reclaimed", uint64(n))

	sp := k.Spans.Begin(obs.KindBalloon, c.ID, pt.VPN(start), n, k.Now())
	initCost := m.SyscallEntry + sim.Time(n)*m.PTEClearPerPage
	sp.Mark(obs.PhaseInitiate, c.ID, k.Now(), initCost)
	finish := func() {
		sp.Release(k.Now())
		done()
	}
	free := func() {
		for _, h := range hfreed {
			k.Alloc.Put(h)
		}
	}

	switch k.hostMode() {
	case HostSkipInval:
		// MUTANT: frames freed, combined entries left alive.
		c.busy(initCost, false, func() {
			free()
			finish()
		})
	case HostLeakEPT:
		// MUTANT: correct coherence, frames never released.
		c.busy(initCost, false, func() {
			k.hostSyncInvalidate(c, v, sp, finish)
		})
	case HostLazy:
		// Park the batch; INVVPID and free only after the reclamation
		// window — the initiator continues immediately (host-LATR). The
		// extra span reference keeps the lifecycle open until the deferred
		// reclaim resolves.
		k.Metrics.Inc("virt.lazy_batches", 1)
		sp.Retain()
		k.Engine.After(m.HostLazyReclaim, func(sim.Time) {
			k.invvpidAll(v)
			free()
			k.Metrics.Inc("virt.lazy_reclaimed", uint64(len(hfreed)))
			sp.MarkLazy(obs.PhaseReclaim, c.ID, k.Now(), 0)
			sp.Release(k.Now())
		})
		c.busy(initCost, false, finish)
	case HostHardware:
		// HATRIC: post precise per-entry invalidations over the fabric
		// (no IPIs, no VM exits), free after propagation.
		post := initCost
		for _, h := range hfreed {
			post += k.hatricInvalidateFrame(h)
		}
		c.busy(post, false, func() {
			c.beginSpin()
			k.Engine.After(m.HATRICPropagation, func(sim.Time) {
				c.endSpin(func() {
					free()
					sp.Mark(obs.PhaseReclaim, c.ID, k.Now(), 0)
					finish()
				})
			})
		})
	default: // HostSync
		c.busy(initCost, false, func() {
			k.hostSyncInvalidate(c, v, sp, func() {
				freeCost := sim.Time(len(hfreed)) * m.FreePerPage
				sp.Mark(obs.PhaseReclaim, c.ID, k.Now(), freeCost)
				c.busy(freeCost, false, func() {
					free()
					finish()
				})
			})
		})
	}
}

// hostSyncInvalidate performs the hypervisor's synchronous quiesce of one
// VM's combined entries: local INVVPID, host IPIs (no VM exits — the host
// owns the bus) to every core that may cache the VPID, remote INVVPID in
// the handler, spin for ACKs.
func (k *Kernel) hostSyncInvalidate(c *Core, v *VM, sp *obs.Span, done func()) {
	m := &k.Cost
	c.TLB.FlushVPID(v.VPID)
	targets := k.vmCoreMask(v)
	targets.Clear(c.ID)
	if n := targets.Count(); n > 0 {
		k.Metrics.Inc("virt.host_quiesce_ipis", uint64(n))
	}
	k.sendIPIs(c, sp, targets, m.VPIDFlush+m.IPISendBase, 0, func(t *Core) sim.Time {
		t.TLB.FlushVPID(v.VPID)
		return m.IPIHandlerEntry + m.VPIDFlush + m.IPIAckWrite
	}, false, done)
}

// hatricInvalidateFrame posts precise invalidations for every TLB entry
// caching hpfn (the shadow tracker is HATRIC's per-entry sharer tag) and
// returns the initiator-side posting cost. Without a tracker the fallback
// is a machine-wide tagged flush per owning context — coarse but safe.
func (k *Kernel) hatricInvalidateFrame(hpfn mem.PFN) sim.Time {
	m := &k.Cost
	var cost sim.Time
	if k.Tracker == nil {
		for _, core := range k.Cores {
			core.TLB.FlushAll()
		}
		return m.TLBFullFlush
	}
	for _, e := range k.Tracker.EntriesOn(hpfn) {
		k.Cores[e.Core].TLB.Invalidate(e.Key.Tag, e.Key.VPN)
		k.Cores[e.Core].inject(m.HATRICInvalPerEntry)
		cost += m.HATRICInvalPerEntry
		k.Metrics.Inc("virt.hatric_invals", 1)
	}
	return cost
}

// MigrateVM models live migration's stop-and-copy instant: the VM
// quiesces, every core drops its VPID's combined entries, and every
// backing is unbacked and freed — the "destination" (the same simulated
// machine) re-faults its working set through EPT violations afterwards.
func (k *Kernel) MigrateVM(c *Core, v *VM, done func()) {
	m := &k.Cost
	backed := v.EPT.BackedGuestFrames()
	cost := m.SyscallEntry +
		sim.Time(len(backed))*(m.PageCopy+m.FreePerPage) +
		sim.Time(len(k.Cores))*m.VPIDFlush
	k.invvpidAll(v)
	for _, gpfn := range backed {
		hpfn, ok := v.EPT.Unback(gpfn)
		if !ok {
			panic(fmt.Sprintf("kernel: migrating unbacked gPFN %d", gpfn))
		}
		k.Alloc.Put(hpfn)
	}
	v.cursor = 0
	k.Metrics.Inc("virt.vm_migrations", 1)
	c.busy(cost, false, done)
}

// DestroyVM tears down v after its guest threads exited: guest mappings
// and VMAs die, guest frames return to the guest pool, all backings are
// freed, every core drops the VPID, and the VPID recycles. Two-level
// leaks found on the way (a backing whose host frame is already free) are
// reported to the auditor before the state disappears.
func (k *Kernel) DestroyVM(c *Core, v *VM, done func()) error {
	if v.destroyed {
		return fmt.Errorf("kernel: VM %s destroyed twice", v.Name)
	}
	for _, mm := range v.mms {
		if mm.threads > 0 {
			return fmt.Errorf("kernel: destroying VM %s with live guest threads", v.Name)
		}
	}
	m := &k.Cost
	k.auditVM(v)
	pages := 0
	for _, mm := range v.mms {
		for _, vma := range mm.Space.VMAs() {
			for vpn := vma.Start; vpn < vma.End; vpn++ {
				if old, ok := mm.PT.Unmap(vpn); ok {
					v.GPhys.Put(old.PFN)
					pages++
				}
			}
			mm.Space.RemoveRange(vma.Start, vma.End)
		}
		mm.CPUMask.ForEach(func(id topo.CoreID) {
			delete(k.Cores[id].maskedMMs, mm)
			mm.CPUMask.Clear(id)
		})
	}
	backed := v.EPT.BackedGuestFrames()
	k.invvpidAll(v)
	for _, gpfn := range backed {
		hpfn, _ := v.EPT.Unback(gpfn)
		k.Alloc.Put(hpfn)
	}
	v.destroyed = true
	k.freeVPIDs = append(k.freeVPIDs, v.VPID)
	k.Metrics.Inc("virt.vm_destroys", 1)
	cost := m.SyscallEntry +
		sim.Time(pages)*m.PTEClearPerPage +
		sim.Time(len(backed))*m.FreePerPage +
		sim.Time(len(k.Cores))*m.VPIDFlush
	c.busy(cost, false, done)
	return nil
}

// auditVM asserts gVA→gPA→hPA consistency for one VM: every mapped guest
// page must reference a live guest frame, and every backed guest frame a
// live host frame. Breaches surface as leaked-state violations.
func (k *Kernel) auditVM(v *VM) {
	if k.Audit == nil {
		return
	}
	for _, gpfn := range v.EPT.BackedGuestFrames() {
		hpfn, _ := v.EPT.Lookup(gpfn)
		if k.Alloc.Refs(hpfn) == 0 {
			k.Metrics.Inc("audit.virt_leak", 1)
			k.Audit.Report(tlb.Violation{
				Kind:   tlb.ViolationLeakedState,
				Time:   k.Now(),
				VPN:    pt.VPN(gpfn),
				PFN:    hpfn,
				Detail: fmt.Sprintf("VM %s: EPT backing to freed host frame (gPFN %d)", v.Name, gpfn),
			})
		}
	}
	for _, mm := range v.mms {
		for _, vma := range mm.Space.VMAs() {
			for vpn := vma.Start; vpn < vma.End; vpn++ {
				e, ok := mm.PT.Get(vpn)
				if !ok {
					continue
				}
				if !v.GPhys.Live(e.PFN) {
					k.Metrics.Inc("audit.virt_leak", 1)
					k.Audit.Report(tlb.Violation{
						Kind:   tlb.ViolationLeakedState,
						Time:   k.Now(),
						VPN:    vpn,
						PFN:    e.PFN,
						Detail: fmt.Sprintf("VM %s: guest PT maps freed guest frame", v.Name),
					})
				}
			}
		}
	}
}

// AuditVirt runs the end-of-run two-level consistency sweep over every
// live VM (destroyed VMs were audited at teardown).
func (k *Kernel) AuditVirt() {
	for _, v := range k.vms {
		if !v.destroyed {
			k.auditVM(v)
		}
	}
}

// AdjustedFramesInUse returns host frames in use with each VM's EPT
// backings replaced by its live guest frames — the quantity a flat
// (single-level) frame-accounting model predicts for a two-level run:
// backing frames for guest-freed pages are host-side slack, while
// ballooned-out live guest pages still count.
func (k *Kernel) AdjustedFramesInUse() int {
	n := int(k.Alloc.TotalInUse())
	for _, v := range k.vms {
		n -= v.EPT.Backed()
		n += v.GPhys.InUse()
	}
	return n
}
