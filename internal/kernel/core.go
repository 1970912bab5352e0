package kernel

import (
	"fmt"

	"latr/internal/obs"
	"latr/internal/sim"
	"latr/internal/tlb"
	"latr/internal/topo"
)

// IRQHandler is an interrupt handler body: invoked with its start time, it
// schedules any follow-up events itself and returns the CPU time it
// consumes on the interrupted core (including modelled pollution).
type IRQHandler func(start sim.Time) sim.Time

// Core is one logical CPU: a TLB, a run queue, and a single in-flight
// execution segment. All per-core behaviour (interrupt injection,
// IRQ-off windows, the ACK spin of synchronous shootdowns) lives here.
type Core struct {
	ID  topo.CoreID
	TLB *tlb.TLB
	k   *Kernel

	runq []*Thread
	cur  *Thread

	// curMM is the address space loaded in the MMU; it survives idle
	// (Linux lazy-TLB mode) until a different mm is dispatched.
	curMM         *MM
	lazyTLB       bool
	deferredFlush bool
	// maskedMMs tracks the mms whose cpumask includes this core, so a full
	// flush can drop stale mask bits (relevant in PCID mode, where entries
	// of previous address spaces linger in the TLB).
	maskedMMs map[*MM]bool

	// Execution segment state. A core is in exactly one of: idle (no cur),
	// running a segment (running==true), or spinning for shootdown ACKs.
	running  bool
	segEnd   sim.Time
	segEvent sim.Timer
	segCont  func()
	irqOff   bool
	spinning bool
	// segDone caches the segmentDone method value: busy() runs once per
	// execution segment, and materializing the bound method there was 21%
	// of all allocations in the full-reproduction profile.
	segDone func(now sim.Time)
	// Continuations bound once per core, on first use (see then): the op
	// step runner, the two halves of a context switch, and the tick.
	stepFn, dispatchFn, dispatch2Fn func()
	tickFn                          func(now sim.Time)

	pendingIRQ []IRQHandler
	// irqBusyUntil serializes interrupt handlers on the core: an IPI that
	// lands while another handler runs queues behind it, delaying its ACK
	// — the interrupt-storm queueing that flattens Linux's Apache curve.
	irqBusyUntil sim.Time

	quantumStart sim.Time
	needResched  bool

	// span is the lifecycle span of the coherence operation this core is
	// currently executing (valid only between a policy entry point being
	// invoked and its done firing; the core runs no other thread inside
	// that window because the segment/spin chain is continuous).
	span *obs.Span

	// Stats.
	IdleTime   sim.Time
	idleSince  sim.Time
	Interrupts uint64
}

func newCore(k *Kernel, id topo.CoreID) *Core {
	c := &Core{
		ID:        id,
		k:         k,
		TLB:       tlb.New(id, k.Spec.L1TLBEntries, k.Spec.L2TLBEntries, k.Tracker),
		maskedMMs: make(map[*MM]bool),
		idleSince: 0,
	}
	c.segDone = c.segmentDone
	return c
}

// idle reports whether the core has no current thread.
func (c *Core) idle() bool { return c.cur == nil }

// Current returns the running thread, if any.
func (c *Core) Current() *Thread { return c.cur }

// Kernel returns the owning kernel.
func (c *Core) Kernel() *Kernel { return c.k }

// busy consumes d nanoseconds of CPU on this core, then calls cont. Only
// one segment may be in flight; syscall implementations chain segments via
// their continuations. irqOff models interrupt-disabled windows (page-table
// spinlocks, context switch): IPIs arriving during such a segment queue and
// run back-to-back when it ends, delaying both cont and the ACKs — the
// interrupt-delay effect §2.1 calls out.
func (c *Core) busy(d sim.Time, irqOff bool, cont func()) {
	if c.running {
		panic(fmt.Sprintf("kernel: core %d started a segment while one is in flight", c.ID))
	}
	if c.spinning {
		panic(fmt.Sprintf("kernel: core %d started a segment while spinning", c.ID))
	}
	if d < 0 {
		panic("kernel: negative busy duration")
	}
	c.running = true
	c.irqOff = irqOff
	c.segCont = cont
	c.segEnd = c.k.Now() + d
	c.segEvent = c.k.Engine.At(c.segEnd, c.segDone)
}

func (c *Core) segmentDone(now sim.Time) {
	c.running = false
	c.irqOff = false
	c.segEvent = sim.Timer{}
	cont := c.segCont
	c.segCont = nil

	if len(c.pendingIRQ) > 0 {
		// Drain interrupts that queued while IRQs were off, then resume.
		start := now
		if c.irqBusyUntil > start {
			start = c.irqBusyUntil
		}
		for _, h := range c.pendingIRQ {
			start += h(start)
		}
		c.pendingIRQ = nil
		c.irqBusyUntil = start
		if extra := start - now; extra > 0 {
			c.busy(extra, false, cont)
			return
		}
	}
	cont()
}

// inject extends the current segment by d (interrupt/tick work stealing CPU
// from the running thread). No-op when idle or spinning.
func (c *Core) inject(d sim.Time) {
	if !c.running || d <= 0 {
		return
	}
	c.segEnd += d
	c.segEvent = c.k.Engine.Reschedule(c.segEvent, c.segEnd)
}

// interrupt delivers an interrupt handler to this core: immediately if
// interrupts are on (stealing time from any running segment), queued
// otherwise.
func (c *Core) interrupt(h IRQHandler) {
	c.Interrupts++
	if c.running && c.irqOff {
		c.pendingIRQ = append(c.pendingIRQ, h)
		c.k.Metrics.Inc("ipi.delayed_irqoff", 1)
		return
	}
	start := c.k.Now()
	if c.irqBusyUntil > start {
		start = c.irqBusyUntil
		c.k.Metrics.Inc("ipi.queued_behind_handler", 1)
	}
	cost := h(start)
	c.irqBusyUntil = start + cost
	c.inject(cost)
}

// beginSpin marks the core as spin-waiting (busy-polling for shootdown
// ACKs): the CPU is occupied but interruptible, and no segment is running.
func (c *Core) beginSpin() {
	if c.running {
		panic("kernel: beginSpin with segment in flight")
	}
	c.spinning = true
}

// endSpin leaves the spin state and continues.
func (c *Core) endSpin(cont func()) {
	if !c.spinning {
		panic("kernel: endSpin while not spinning")
	}
	c.spinning = false
	cont()
}

// Busy exposes segment execution to policy implementations in other
// packages: consume d nanoseconds on this core, then run cont. See busy.
func (c *Core) Busy(d sim.Time, irqOff bool, cont func()) { c.busy(d, irqOff, cont) }

// Inject exposes interrupt-style CPU stealing to policy implementations:
// extend the running segment by d (no-op when the core is idle/spinning).
func (c *Core) Inject(d sim.Time) { c.inject(d) }

// BeginSpin exposes the ACK-spin state to policy implementations.
func (c *Core) BeginSpin() { c.beginSpin() }

// EndSpin exposes spin completion to policy implementations.
func (c *Core) EndSpin(cont func()) { c.endSpin(cont) }

// Span returns the lifecycle span of the coherence operation the core is
// currently executing, or nil outside an operation window. Policy code
// uses it to mark phases without any signature changes.
func (c *Core) Span() *obs.Span { return c.span }

// SetSpan installs (or, with nil, clears) the core's current operation
// span. The kernel brackets every policy entry point with it; extensions
// driving the policy directly (the swapper) do the same.
func (c *Core) SetSpan(sp *obs.Span) { c.span = sp }

// PCIDOf returns the TLB tag used for mm on this core under the current
// kernel options.
func (c *Core) PCIDOf(mm *MM) tlb.Tag { return c.pcid(mm) }

// Idle reports whether no thread is currently scheduled on the core.
func (c *Core) Idle() bool { return c.idle() }

// Block parks the current thread th; resume runs when the thread is next
// scheduled after a Wake. Exported for kernel extensions.
func (c *Core) Block(th *Thread, resume func()) { c.block(th, resume) }

// setMM loads mm as the core's active address space, maintaining cpumask
// bits and performing the flushes required by the PCID mode.
func (c *Core) setMM(mm *MM) {
	k := c.k
	if c.deferredFlush {
		// This core skipped shootdown IPIs while idle in lazy-TLB mode;
		// pay the full flush before running anything (§2.3).
		c.flushAllTLB()
		c.deferredFlush = false
		k.Metrics.Inc("shootdown.deferred_flush", 1)
	}
	if c.curMM == mm {
		c.lazyTLB = false
		return
	}
	if !k.Opts.UsePCID {
		// Without PCIDs a context switch to a new mm flushes the incoming
		// mm's virtualization context — on bare metal that is everything;
		// once VMs exist, only the target VPID's entries go, VT-x style,
		// so host↔guest transitions keep foreign-context entries warm.
		// Like Linux, the old mm keeps this core in its cpumask (only a
		// later shootdown IPI observing the mismatch clears it, the
		// leave_mm path). Those stale bits are why Apache-style workloads
		// broadcast IPIs to cores that hold no relevant entries.
		if k.virtUsed {
			c.TLB.FlushVPID(vpidOf(mm))
		} else {
			c.TLB.FlushAll()
		}
	}
	c.curMM = mm
	c.lazyTLB = false
	if mm != nil {
		mm.CPUMask.Set(c.ID)
		c.maskedMMs[mm] = true
	}
}

// flushAllTLB performs a full local flush and drops this core from the
// cpumask of every address space except the currently loaded one.
func (c *Core) flushAllTLB() {
	c.TLB.FlushAll()
	for mm := range c.maskedMMs {
		if mm != c.curMM {
			mm.CPUMask.Clear(c.ID)
			delete(c.maskedMMs, mm)
		}
	}
}

// pcid returns the TLB tag for mm under the current options. Guest address
// spaces always carry their VM's VPID; the PCID half follows UsePCID.
func (c *Core) pcid(mm *MM) tlb.Tag {
	tag := tlb.Tag{VPID: vpidOf(mm)}
	if c.k.Opts.UsePCID {
		tag.PCID = mm.PCID
	}
	return tag
}

// vpidOf returns the VPID tagging mm's TLB entries: the owning VM's for
// guest address spaces, 0 (host) otherwise. nil maps to host so idle
// dispatch works unchanged.
func vpidOf(mm *MM) tlb.VPID {
	if mm == nil || mm.VM == nil {
		return 0
	}
	return mm.VM.VPID
}

// flushMM is a "full flush" scoped to mm's virtualization context: on bare
// metal a CR3 write flushes everything, while a guest's full flush only
// reaches its own VPID's entries (a guest cannot invalidate host or
// sibling-VM translations).
func (c *Core) flushMM(mm *MM) {
	if mm == nil || mm.VM == nil {
		c.TLB.FlushAll()
		return
	}
	c.TLB.FlushVPID(mm.VM.VPID)
}
