package kernel

import (
	"latr/internal/mem"
	"latr/internal/obs"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/topo"
)

// FrameRef pairs a virtual page with the frame that backed it, handed to
// the policy when pages are unmapped so the policy controls *when* the
// frame becomes reusable (immediately after a synchronous shootdown, or
// after the lazy-reclamation delay).
type FrameRef struct {
	VPN pt.VPN
	PFN mem.PFN
	// vm routes the eventual free: nil frames return to the host
	// allocator, guest frames to their VM's guest-physical pool (the EPT
	// backing stays in place for reuse). Set by the kernel when it builds
	// the unmap; policies pass FrameRefs through opaquely.
	vm *VM
}

// Unmap describes one address-range unmap needing TLB coherence.
type Unmap struct {
	MM     *MM
	Start  pt.VPN
	Pages  int
	Frames []FrameRef
	// KeepVMA is true for madvise-style frees: the VA range stays reserved
	// (no Space release), only the pages go away.
	KeepVMA bool
	// ForceSync requests synchronous completion even from lazy policies
	// (the per-call opt-out §7 proposes for fault-on-free applications).
	ForceSync bool
	// Span is the operation's lifecycle span; the kernel sets it for every
	// unmap it issues. Tests that call a policy directly may leave it nil:
	// every Span method is nil-safe, so such an unmap marks no phases and
	// emits no trace.
	Span *obs.Span
}

// Policy is a TLB-coherence mechanism. All entry points run inside the
// event loop on the initiating core c; completion is signalled by calling
// done, possibly at a later virtual time. Policies are responsible for:
//
//   - invalidating remote TLB entries for the unmapped range,
//   - releasing the frames (k.ReleaseFrames) once safe,
//   - releasing the VA range (k.ReleaseVA) once safe (unless KeepVMA).
//
// The kernel has already removed the VMAs, cleared the PTEs and invalidated
// the initiating core's own TLB before calling Munmap.
//
// A synchronous policy is built from the kernel's shootdown helpers:
// ShootdownTargets (the remote cores to make coherent), Shootdown (count
// and send the IPIs, or finish at once with no targets), FreeUnmapped
// (the free after the last ACK) and MarkNUMAHints (the AutoNUMA prologue),
// so it keeps only what sets it apart.
type Policy interface {
	Name() string

	// Munmap provides coherence for a free operation (munmap/madvise).
	Munmap(c *Core, u Unmap, done func())

	// SyncChange provides coherence for operations that must apply
	// synchronously system-wide (mprotect, CoW, mremap — Table 1): every
	// policy must block until remote TLBs are clean.
	SyncChange(c *Core, mm *MM, start pt.VPN, pages int, done func())

	// NUMAUnmap performs the AutoNUMA sampling unmap of a page range: mark
	// the PTEs with the NUMA hint and make all cores' TLBs coherent
	// (change_prot_numa batches whole ranges under one flush). done runs
	// when the *initiating task* may continue (for lazy policies that is
	// immediately; the hint faults may only fire later).
	NUMAUnmap(c *Core, mm *MM, start pt.VPN, pages int, done func())

	// OnTick and OnContextSwitch are periodic hooks running on core c;
	// they return the CPU time consumed (e.g. the LATR state sweep).
	OnTick(c *Core) sim.Time
	OnContextSwitch(c *Core) sim.Time

	// OnPageTouch observes a TLB fill on core c (ABIS sharer tracking);
	// returns added cost.
	OnPageTouch(c *Core, mm *MM, vpn pt.VPN) sim.Time

	// OnMMExit runs when the last thread of mm exits. Policies that keep
	// per-MM bookkeeping (ABIS sharer maps) must drop it here so long
	// fork/exit churn cannot leak; stateless policies implement a no-op.
	// The MM's pending unmaps (lazy reclaim, in-flight shootdowns) are NOT
	// cancelled — only per-MM caches may be discarded.
	OnMMExit(mm *MM)
}

// Attacher is implemented by policies that need the kernel reference.
type Attacher interface {
	Attach(k *Kernel)
}

// ReleaseFrames drops the policy's reference on unmapped frames, making
// them reusable. Under invariant checking this is the moment the shadow
// tracker must show no residual TLB entries if the frame refcount reaches
// zero and gets reallocated.
func (k *Kernel) ReleaseFrames(frames []FrameRef) {
	for _, f := range frames {
		if f.vm != nil {
			f.vm.GPhys.Put(f.PFN)
			continue
		}
		k.Alloc.Put(f.PFN)
	}
}

// ReleaseVA returns an unmapped VA range to the address-space allocator
// for immediate reuse (synchronous policies).
func (k *Kernel) ReleaseVA(mm *MM, start pt.VPN, pages int) {
	mm.Space.Release(start, pages)
}

// ShootdownTargets computes the remote cores that must participate in a
// shootdown for mm from core self: every core in mm_cpumask except the
// initiator, minus idle lazy-TLB cores, which are marked to fully flush
// before they next run a thread (Linux's lazy TLB invalidation — §2.3).
// Every call repeats the skip's side effects (the flush and the
// shootdown.lazy_skipped count) for each idle core it drops.
func (k *Kernel) ShootdownTargets(self *Core, mm *MM) topo.CoreMask {
	var targets topo.CoreMask
	mm.CPUMask.ForEach(func(id topo.CoreID) {
		c := k.Cores[id]
		if c == self {
			return
		}
		if c.idle() && c.lazyTLB {
			// Linux lazy-TLB skip (§2.3): the idle core is excluded from
			// the IPI set and fully flushes before it next runs a thread.
			// Its cached entries are dead from this moment — the model
			// drops them now (keeping the reuse-invariant checker exact)
			// and charges the flush cost at wake via deferredFlush.
			c.deferredFlush = true
			c.flushAllTLB()
			k.Metrics.Inc("shootdown.lazy_skipped", 1)
			return
		}
		targets.Set(id)
	})
	return targets
}

// Shootdown is the synchronous shootdown of the IPI-based policies: with
// no targets done runs at once; otherwise it counts shootdown.initiated
// and sends the IPIs (SendShootdownIPIs).
func (k *Kernel) Shootdown(c *Core, mm *MM, start pt.VPN, pages int, targets topo.CoreMask, done func()) {
	if targets.Empty() {
		done()
		return
	}
	k.Metrics.Inc("shootdown.initiated", 1)
	k.SendShootdownIPIs(c, mm, start, pages, targets, done)
}

// FreeUnmapped is the free that ends a synchronous unmap once no remote
// TLB caches the range: it charges FreePerPage per frame on c, marks the
// reclaim phase, drains replica invalidations parked for the range,
// releases the frames and (unless KeepVMA) the VA range, then runs done.
func (k *Kernel) FreeUnmapped(c *Core, u Unmap, done func()) {
	freeCost := sim.Time(len(u.Frames)) * k.Cost.FreePerPage
	u.Span.Mark(obs.PhaseReclaim, c.ID, k.Now(), freeCost)
	c.busy(freeCost, false, func() {
		k.ReplComplete(u.MM, u.Start, u.Pages)
		k.ReleaseFrames(u.Frames)
		if !u.KeepVMA {
			k.ReleaseVA(u.MM, u.Start, u.Pages)
		}
		done()
	})
}

// MarkNUMAHints is the synchronous AutoNUMA prologue (change_prot_numa):
// it sets the NUMA hint on every PTE of the range and invalidates the
// range on c (one full flush past FullFlushThreshold). It returns the CPU
// time the caller charges for the work.
func (k *Kernel) MarkNUMAHints(c *Core, mm *MM, start pt.VPN, pages int) sim.Time {
	for i := 0; i < pages; i++ {
		mm.PT.SetNUMAHint(start+pt.VPN(i), true)
	}
	if pages > k.Cost.FullFlushThreshold {
		c.TLB.FlushAll()
	} else {
		c.TLB.InvalidateRange(c.pcid(mm), start, start+pt.VPN(pages))
	}
	return sim.Time(pages)*k.Cost.PTEClearPerPage + k.Cost.InvalidateCost(pages)
}

// SendShootdownIPIs runs the IPI protocol of a guest or bare-metal
// shootdown from c to targets: serialized APIC sends, remote handler
// invalidations, and a spin-wait for all ACKs; done fires when the last
// ACK lands. With no targets it still charges the fixed setup cost. Use
// Shootdown unless the caller must pay that setup cost for an empty
// target set.
//
// pages==0 requests a full flush on the targets.
func (k *Kernel) SendShootdownIPIs(c *Core, mm *MM, start pt.VPN, pages int, targets topo.CoreMask, done func()) {
	m := &k.Cost
	if targets.Empty() {
		k.sendIPIs(c, c.Span(), targets, m.IPISendBase, 0, nil, false, done)
		return
	}
	n := targets.Count()
	k.Metrics.Inc("shootdown.ipi", 1)
	k.Metrics.Inc("shootdown.ipi_targets", uint64(n))
	sendCost, perTarget := m.IPISendBase, sim.Time(0)
	// Yan et al.'s trap-and-fan-out amplification: a guest-initiated
	// shootdown exits to the hypervisor (one round trip), and every IPI is
	// injected as a virtual interrupt rather than written to the APIC.
	if mm.VM != nil {
		sendCost += m.VMExitRoundTrip
		perTarget = m.VMExitIPIInject
		k.Metrics.Inc("virt.vm_exits", uint64(1+n))
	}
	handle := func(t *Core) sim.Time { return k.shootdownHandler(t, mm, start, pages) }
	work := k.sendIPIs(c, c.Span(), targets, sendCost, perTarget, handle, true, done)
	// Table 5's "single TLB shootdown in Linux" is the initiator-side work
	// (flush-info setup + serialized APIC sends), excluding the ACK wait.
	k.Metrics.Observe("shootdown.initiator_work", work)
}

// shootdownHandler is the remote half of a shootdown IPI on target t: it
// invalidates the range (fully flushing mm past FullFlushThreshold or for
// pages==0), drops t from a stale cpumask (leave_mm), and returns the
// handler's time up to its ACK write.
func (k *Kernel) shootdownHandler(t *Core, mm *MM, start pt.VPN, pages int) sim.Time {
	m := &k.Cost
	var inval sim.Time
	if pages <= 0 || pages > m.FullFlushThreshold {
		t.flushMM(mm)
		inval = m.TLBFullFlush
	} else {
		t.TLB.InvalidateRange(t.pcid(mm), start, start+pt.VPN(pages))
		inval = sim.Time(pages) * m.InvlpgLocal
	}
	if !k.Opts.UsePCID && t.curMM != mm {
		// leave_mm: the core is running another address space, so its
		// switch-time flush already killed mm's entries; drop the stale
		// cpumask bit so future shootdowns skip this core. Once VMs exist
		// the switch-time flush is VPID-scoped and need not have covered
		// mm, so leave_mm flushes mm's context explicitly before dropping
		// the bit.
		if k.virtUsed {
			t.flushMM(mm)
		}
		mm.CPUMask.Clear(t.ID)
		delete(t.maskedMMs, mm)
		k.Metrics.Inc("ipi.leave_mm", 1)
	}
	total := m.IPIHandlerEntry + inval + m.IPIAckWrite
	if mm.VM != nil {
		// The guest handler's EOI write traps to the hypervisor.
		total += m.VMExitEOI
		k.Metrics.Inc("virt.vm_exits", 1)
	}
	k.Metrics.Inc("ipi.handled", 1)
	k.Metrics.Observe("ipi.handler", total)
	return total
}

// sendIPIs is the one synchronous IPI loop, shared by guest and
// bare-metal shootdowns and the hypervisor's quiesce. c is busy for
// sendCost plus one APIC send (by hop count, plus perTarget) per target,
// then spins. Each IPI lands after its delivery latency and any chaos
// delay, runs handle on the target in interrupt context (queued behind an
// IRQ-off segment) and ACKs when the handler's time has passed. At the
// last ACK done runs; a guest or bare-metal shootdown (shootdown set)
// also records the spin time as shootdown.ack_wait. With no targets c is
// only busy for sendCost. It marks the send, invalidate and ACK phases on
// sp and returns the send time.
func (k *Kernel) sendIPIs(c *Core, sp *obs.Span, targets topo.CoreMask, sendCost, perTarget sim.Time,
	handle func(t *Core) sim.Time, shootdown bool, done func()) sim.Time {
	m := &k.Cost
	if targets.Empty() {
		sp.Mark(obs.PhaseSend, c.ID, k.Now(), sendCost)
		c.busy(sendCost, false, done)
		return sendCost
	}
	sp.SetTargets(targets)
	type delivery struct {
		core *Core
		at   sim.Time
	}
	deliveries := make([]delivery, 0, targets.Count())
	for _, t := range k.Cores {
		if !targets.Has(t.ID) {
			continue
		}
		hops := k.Spec.Hops(c.ID, t.ID)
		sendCost += m.IPISend(hops) + perTarget
		// Chaos can stretch individual deliveries (interconnect congestion,
		// slow APIC): the ACK spin-wait below absorbs the extra latency.
		deliveries = append(deliveries, delivery{t, k.Now() + sendCost + m.IPIDeliverLatency(hops) + k.chaosIPIDelay(c.ID, t.ID)})
	}

	pending := len(deliveries)
	spinStart := sim.Time(0)
	ackDone := func(now sim.Time) {
		pending--
		if pending == 0 {
			wait := now - spinStart
			if shootdown && wait > 0 {
				k.Metrics.Observe("shootdown.ack_wait", wait)
			}
			sp.Mark(obs.PhaseAck, c.ID, spinStart, wait)
			c.endSpin(done)
		}
	}

	// The initiator is busy during the serialized sends, then spins until
	// the last ACK (interruptible: it still services incoming IPIs).
	c.busy(sendCost, false, func() {
		spinStart = k.Now()
		c.beginSpin()
		for _, d := range deliveries {
			t := d.core
			k.Engine.At(max(d.at, k.Now()), func(sim.Time) {
				t.interrupt(func(now sim.Time) sim.Time {
					total := handle(t)
					sp.Mark(obs.PhaseInvalidate, t.ID, now, total)
					k.Engine.At(now+total, ackDone)
					return total + m.IPIHandlerPollution
				})
			})
		}
	})
	sp.Mark(obs.PhaseSend, c.ID, k.Now(), sendCost)
	return sendCost
}

// NUMAUnmap drives the policy's NUMA-unmap entry point with a lifecycle
// span bracketed around it. The AutoNUMA scanner and chaos workloads call
// this wrapper instead of the policy directly, so migration unmaps get
// the same provenance as syscall-driven shootdowns.
func (k *Kernel) NUMAUnmap(c *Core, mm *MM, start pt.VPN, pages int, done func()) {
	sp := k.Spans.Begin(obs.KindNUMA, c.ID, start, pages, k.Now())
	sp.Mark(obs.PhaseInitiate, c.ID, k.Now(), 0)
	c.SetSpan(sp)
	k.policy.NUMAUnmap(c, mm, start, pages, func() {
		c.SetSpan(nil)
		sp.Release(k.Now())
		done()
	})
}
