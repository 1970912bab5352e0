package kernel

import (
	"fmt"

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
	// records no timeline line.
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
// A synchronous policy embeds SyncDefaults and writes Name and
// SyncChange, the one path where mechanisms differ (Table 1), usually from
// the kernel's shootdown helpers: ShootdownTargets (the remote cores to
// make coherent) and Shootdown (count and send the IPIs, or finish at once
// with no targets). SyncDefaults builds its munmap and NUMA unmap from
// that SyncChange, so the policy keeps only what sets it apart.
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
	// fork/exit churn cannot leak; SyncDefaults' does nothing.
	// The MM's pending unmaps (lazy reclaim, in-flight shootdowns) are NOT
	// cancelled — only per-MM caches may be discarded.
	OnMMExit(mm *MM)
}

// Attacher is implemented by policies that need the kernel reference.
type Attacher interface {
	Attach(k *Kernel)
}

// SyncDefaults supplies every Policy method but Name and SyncChange, for
// embedding: the munmap and NUMA unmap of a synchronous mechanism, built
// on the installed policy's SyncChange, and hooks that cost nothing. A
// policy overrides what it does differently.
type SyncDefaults struct{}

// Munmap makes u's range coherent through the installed policy's
// SyncChange, then frees it (FreeUnmapped): frames and VA are released
// only once no remote TLB caches them (Fig 2a).
func (SyncDefaults) Munmap(c *Core, u Unmap, done func()) {
	r := c.unmapRecord(u, done)
	c.k.policy.SyncChange(c, u.MM, u.Start, u.Pages, r.freeFn)
}

// NUMAUnmap is change_prot_numa: it charges MarkNUMAHints with IRQs off,
// then makes the range coherent through the installed policy's SyncChange
// (Fig 3a), a cost paid even when the later faults do not migrate.
func (SyncDefaults) NUMAUnmap(c *Core, mm *MM, start pt.VPN, pages int, done func()) {
	k := c.k
	c.busy(k.MarkNUMAHints(c, mm, start, pages), true, func() {
		k.policy.SyncChange(c, mm, start, pages, done)
	})
}

// OnTick returns 0.
func (SyncDefaults) OnTick(*Core) sim.Time { return 0 }

// OnContextSwitch returns 0.
func (SyncDefaults) OnContextSwitch(*Core) sim.Time { return 0 }

// OnPageTouch returns 0.
func (SyncDefaults) OnPageTouch(*Core, *MM, pt.VPN) sim.Time { return 0 }

// OnMMExit does nothing: the defaults keep no per-MM state.
func (SyncDefaults) OnMMExit(*MM) {}

// ReleaseFrames drops the policy's reference on unmapped frames, making
// them reusable. Under invariant checking this is the moment the shadow
// tracker must show no residual TLB entries if the frame refcount reaches
// zero and gets reallocated.
//
// The caller gives the slice up: the kernel keeps small lists on a free
// list and hands their backing arrays to later unmaps, so neither frames
// nor any Unmap holding it may be read afterwards.
func (k *Kernel) ReleaseFrames(frames []FrameRef) {
	for _, f := range frames {
		if f.vm != nil {
			f.vm.GPhys.Put(f.PFN)
			continue
		}
		k.Alloc.Put(f.PFN)
	}
	if n := cap(frames); n > 0 && n <= maxPooledFrames && len(k.frameLists) < maxPooledFrameLists {
		clear(frames)
		k.frameLists = append(k.frameLists, frames[:0])
	}
}

// maxPooledFrameLists and maxPooledFrames cap the frame-list free list:
// at most that many lists, each with room for at most that many frames,
// so a burst of unmaps cannot pin memory once it is over.
const (
	maxPooledFrameLists = 1024
	maxPooledFrames     = 64
)

// frameList returns an empty frame list with room for n frames: the
// newest list ReleaseFrames took back when it is big enough, otherwise a
// new one. A list too small is dropped, so the free list converges on the
// sizes a run unmaps.
func (k *Kernel) frameList(n int) []FrameRef {
	if i := len(k.frameLists) - 1; i >= 0 && n <= maxPooledFrames {
		l := k.frameLists[i]
		k.frameLists[i] = nil
		k.frameLists = k.frameLists[:i]
		if cap(l) >= n {
			return l
		}
	}
	return make([]FrameRef, 0, n)
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
			k.met.lazySkipped.Inc()
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
	k.met.initiated.Inc()
	k.SendShootdownIPIs(c, mm, start, pages, targets, done)
}

// ShootdownAndFree is a synchronous policy's munmap after it has chosen
// the targets: Shootdown of u's range to targets, then FreeUnmapped, then
// done.
func (k *Kernel) ShootdownAndFree(c *Core, u Unmap, targets topo.CoreMask, done func()) {
	r := c.unmapRecord(u, done)
	k.Shootdown(c, u.MM, u.Start, u.Pages, targets, r.freeFn)
}

// FreeUnmapped is the free that ends a synchronous unmap once no remote
// TLB caches the range: it charges FreePerPage per frame on c, marks the
// reclaim phase, drains replica invalidations parked for the range,
// releases the frames and (unless KeepVMA) the VA range, then runs done.
func (k *Kernel) FreeUnmapped(c *Core, u Unmap, done func()) {
	c.unmapRecord(u, done).free()
}

// syncUnmap is a core's synchronous unmap from its coherence step (under
// SyncDefaults.Munmap or ShootdownAndFree) to the end of its free: the
// Unmap and done, with the two continuations bound once. The core is busy
// or spinning for all of that time, so it has one unmap in flight at
// most, and one record, made on its first, serves them all.
type syncUnmap struct {
	c         *Core
	u         Unmap
	done      func() // nil when no unmap is in flight
	freeFn    func() // r.free: the shootdown's continuation
	releaseFn func() // r.release: the free segment's continuation
}

// unmapRecord returns c's synchronous-unmap record holding u and done.
// Starting an unmap while one is in flight is a bug and panics.
func (c *Core) unmapRecord(u Unmap, done func()) *syncUnmap {
	r := c.unmap
	if r == nil {
		r = &syncUnmap{c: c}
		r.freeFn, r.releaseFn = r.free, r.release
		c.unmap = r
	}
	if r.done != nil {
		panic(fmt.Sprintf("kernel: core %d started an unmap while one is in flight", c.ID))
	}
	r.u, r.done = u, done
	return r
}

// free charges and marks the free, then releases at the segment's end.
func (r *syncUnmap) free() {
	k := r.c.k
	freeCost := sim.Time(len(r.u.Frames)) * k.Cost.FreePerPage
	r.u.Span.Mark(obs.PhaseReclaim, r.c.ID, k.Now(), freeCost)
	r.c.busy(freeCost, false, r.releaseFn)
}

// release returns the range's frames and VA and runs done.
func (r *syncUnmap) release() {
	k, u, done := r.c.k, r.u, r.done
	r.u, r.done = Unmap{}, nil
	k.ReplComplete(u.MM, u.Start, u.Pages)
	k.ReleaseFrames(u.Frames)
	if !u.KeepVMA {
		k.ReleaseVA(u.MM, u.Start, u.Pages)
	}
	done()
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
		k.sendIPIs(c, c.Span(), targets, m.IPISendBase, 0, ipiHandler{}, done)
		return
	}
	n := targets.Count()
	k.met.ipiSent.Inc()
	k.met.ipiTargets.Add(uint64(n))
	sendCost, perTarget := m.IPISendBase, sim.Time(0)
	// Yan et al.'s trap-and-fan-out amplification: a guest-initiated
	// shootdown exits to the hypervisor (one round trip), and every IPI is
	// injected as a virtual interrupt rather than written to the APIC.
	if mm.VM != nil {
		sendCost += m.VMExitRoundTrip
		perTarget = m.VMExitIPIInject
		k.met.vmExits.Add(uint64(1 + n))
	}
	h := ipiHandler{kind: ipiShootdown, mm: mm, start: start, pages: pages}
	work := k.sendIPIs(c, c.Span(), targets, sendCost, perTarget, h, done)
	// Table 5's "single TLB shootdown in Linux" is the initiator-side work
	// (flush-info setup + serialized APIC sends), excluding the ACK wait.
	k.met.initiatorWork.Observe(work)
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
		k.met.ipiLeaveMM.Inc()
	}
	total := m.IPIHandlerEntry + inval + m.IPIAckWrite
	if mm.VM != nil {
		// The guest handler's EOI write traps to the hypervisor.
		total += m.VMExitEOI
		k.met.vmExits.Inc()
	}
	k.met.ipiHandled.Inc()
	k.met.ipiHandler.Observe(total)
	return total
}

// sendIPIs is the one synchronous IPI loop, shared by guest and
// bare-metal shootdowns and the hypervisor's quiesce. c is busy for
// sendCost plus one APIC send (by hop count, plus perTarget) per target,
// then spins. Each IPI lands after its delivery latency and any chaos
// delay, runs h on the target in interrupt context (queued behind an
// IRQ-off segment) and ACKs when the handler's time has passed. At the
// last ACK done runs; a guest or bare-metal shootdown (h.kind
// ipiShootdown) also records the spin time as shootdown.ack_wait. With no
// targets c is only busy for sendCost. It marks the send, invalidate and
// ACK phases on sp and returns the send time.
func (k *Kernel) sendIPIs(c *Core, sp *obs.Span, targets topo.CoreMask, sendCost, perTarget sim.Time,
	h ipiHandler, done func()) sim.Time {
	m := &k.Cost
	if targets.Empty() {
		sp.Mark(obs.PhaseSend, c.ID, k.Now(), sendCost)
		c.busy(sendCost, false, done)
		return sendCost
	}
	sp.SetTargets(targets)
	r := c.ipiRound()
	r.sp, r.h, r.done, r.n = sp, h, done, 0
	for _, t := range k.Cores {
		if !targets.Has(t.ID) {
			continue
		}
		hops := k.Spec.Hops(c.ID, t.ID)
		sendCost += m.IPISend(hops) + perTarget
		// Chaos can stretch individual deliveries (interconnect congestion,
		// slow APIC): the ACK spin-wait absorbs the extra latency.
		r.add(t, k.Now()+sendCost+m.IPIDeliverLatency(hops)+k.chaosIPIDelay(c.ID, t.ID))
	}
	r.pending = r.n
	// The initiator is busy during the serialized sends, then spins until
	// the last ACK (interruptible: it still services incoming IPIs).
	c.busy(sendCost, false, r.sendFn)
	sp.Mark(obs.PhaseSend, c.ID, k.Now(), sendCost)
	return sendCost
}

// ipiKind names what an IPI's handler does on its target.
type ipiKind uint8

const (
	ipiShootdown ipiKind = iota + 1 // invalidate mm's range (shootdownHandler)
	ipiFlushVPID                    // flush vm's VPID (the hypervisor's quiesce)
)

// ipiHandler is the handler an IPI round runs on each target: its kind
// and the operands that kind reads.
type ipiHandler struct {
	kind  ipiKind
	mm    *MM
	start pt.VPN
	pages int
	vm    *VM
}

// run executes the handler on target t and returns its time up to the
// ACK write.
func (h *ipiHandler) run(t *Core) sim.Time {
	if h.kind == ipiFlushVPID {
		t.TLB.FlushVPID(h.vm.VPID)
		return t.k.Cost.IPIHandlerEntry + t.k.Cost.VPIDFlush + t.k.Cost.IPIAckWrite
	}
	return t.k.shootdownHandler(t, h.mm, h.start, h.pages)
}

// ipiRound is a core's IPI round, from sendIPIs to the last ACK. A core
// spins until that ACK, so it has one round in flight at most, and one
// record, made on its first round, serves them all. Its continuations are
// bound once, as Core.then's are.
type ipiRound struct {
	c    *Core
	sp   *obs.Span
	h    ipiHandler
	done func()
	// dels[:n] are this round's deliveries, in k.Cores order. Later
	// rounds reuse them in order, so a core holds as many as its widest
	// round had targets.
	dels      []*ipiDelivery
	n         int
	pending   int // ACKs still to land; nonzero while the round is in flight
	spinStart sim.Time
	sendFn    func()         // r.send: the send segment's continuation
	ackFn     func(sim.Time) // r.ack: one target's ACK
}

// ipiDelivery is one IPI of a round: its target and landing time, with
// the delivery event and the interrupt handler bound once.
type ipiDelivery struct {
	r         *ipiRound
	t         *Core
	at        sim.Time
	deliverFn func(sim.Time) // d.deliver
	handleFn  IRQHandler     // d.handle
}

// ipiRound returns c's IPI round record. Starting a round while one is in
// flight is a bug and panics.
func (c *Core) ipiRound() *ipiRound {
	r := c.ipi
	if r == nil {
		r = &ipiRound{c: c}
		r.sendFn, r.ackFn = r.send, r.ack
		c.ipi = r
	}
	if r.pending > 0 {
		panic(fmt.Sprintf("kernel: core %d started an IPI round while one is in flight", c.ID))
	}
	return r
}

// add appends the round's next delivery, to t at time at.
func (r *ipiRound) add(t *Core, at sim.Time) {
	if r.n == len(r.dels) {
		d := &ipiDelivery{r: r}
		d.deliverFn, d.handleFn = d.deliver, d.handle
		r.dels = append(r.dels, d)
	}
	d := r.dels[r.n]
	d.t, d.at = t, at
	r.n++
}

// send ends the send segment: the initiator starts spinning and every IPI
// is scheduled to land.
func (r *ipiRound) send() {
	k := r.c.k
	r.spinStart = k.Now()
	r.c.beginSpin()
	for _, d := range r.dels[:r.n] {
		k.Engine.At(max(d.at, k.Now()), d.deliverFn)
	}
}

// ack counts one target's ACK; the last one ends the spin and runs done.
func (r *ipiRound) ack(now sim.Time) {
	if r.pending--; r.pending > 0 {
		return
	}
	k := r.c.k
	wait := now - r.spinStart
	if r.h.kind == ipiShootdown && wait > 0 {
		k.met.ackWait.Observe(wait)
	}
	r.sp.Mark(obs.PhaseAck, r.c.ID, r.spinStart, wait)
	done := r.done
	r.sp, r.h, r.done = nil, ipiHandler{}, nil
	r.c.endSpin(done)
}

// deliver lands the IPI on its target.
func (d *ipiDelivery) deliver(sim.Time) { d.t.interrupt(d.handleFn) }

// handle is the IPI's interrupt handler on its target: it runs the
// round's handler, marks the invalidation and schedules the ACK.
func (d *ipiDelivery) handle(now sim.Time) sim.Time {
	r, k := d.r, d.t.k
	total := r.h.run(d.t)
	r.sp.Mark(obs.PhaseInvalidate, d.t.ID, now, total)
	k.Engine.At(now+total, r.ackFn)
	return total + k.Cost.IPIHandlerPollution
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
