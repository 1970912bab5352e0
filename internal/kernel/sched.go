package kernel

import (
	"slices"

	"latr/internal/sim"
)

// enqueue makes th runnable on its core and kicks the dispatcher if the
// core is idle. Kernel threads (AutoNUMA scanning etc.) jump the queue and
// request a reschedule at the next op boundary — the analogue of their
// work running in task context / at elevated priority rather than waiting
// out a full user timeslice.
func (c *Core) enqueue(th *Thread) {
	th.State = Ready
	if th.kernelThread {
		c.runq = slices.Insert(c.runq, 0, th)
		if c.cur != nil {
			c.needResched = true
		}
	} else {
		c.runq = append(c.runq, th)
	}
	c.maybeDispatch()
}

// maybeDispatch starts a context switch if the core is idle and work is
// waiting. It is safe to call from any event context.
func (c *Core) maybeDispatch() {
	if c.cur != nil || c.running || c.spinning || len(c.runq) == 0 {
		return
	}
	if c.idleSince >= 0 {
		c.IdleTime += c.k.Now() - c.idleSince
		c.idleSince = -1
	}
	c.cur = c.runq[0]
	// Pop in place, so the queue keeps reusing one backing array.
	c.runq = slices.Delete(c.runq, 0, 1)
	if c.dispatchFn == nil {
		c.dispatchFn = c.dispatch
	}
	// The context switch itself runs with interrupts disabled.
	c.busy(c.k.Cost.ContextSwitch, true, c.dispatchFn)
}

// dispatch completes a context switch to the current thread: policy hook,
// then address-space change and thread execution.
func (c *Core) dispatch() {
	k := c.k
	k.Metrics.Inc("sched.context_switches", 1)

	// LATR sweeps at context switches *before* any PCID change so entries
	// of the outgoing address space are covered (§4.5).
	if hook := c.ctxSwitchHook(); hook > 0 {
		k.Metrics.Observe("policy.ctxswitch_hook", hook)
		if c.dispatch2Fn == nil {
			c.dispatch2Fn = c.dispatch2
		}
		c.busy(hook, false, c.dispatch2Fn)
		return
	}
	c.dispatch2()
}

func (c *Core) dispatch2() {
	th := c.mustCurrent()
	if !th.kernelThread {
		c.setMM(th.Proc.MM)
	}
	// Kernel threads borrow whatever mm is loaded (lazy mm, as Linux
	// kthreads do), so they cause no TLB flush or cpumask churn.
	th.State = Running
	th.scheduledAt = c.k.Now()
	c.quantumStart = c.k.Now()
	c.needResched = false
	c.runCurrent()
}

// runCurrent resumes an in-flight operation or fetches the next op.
func (c *Core) runCurrent() {
	th := c.cur
	if th == nil {
		panic("kernel: runCurrent without a thread")
	}
	if r := th.resume; r != nil {
		th.resume = nil
		r()
		return
	}
	op := th.Program.Next(c.k.Now(), th)
	if op == nil {
		c.k.threadExited(c, th)
		c.cur = nil
		c.goIdleOrDispatch()
		return
	}
	c.execOp(th, op)
}

// opBoundary runs between ops: it honours preemption requests, otherwise
// continues with the next op.
func (c *Core) opBoundary() {
	th := c.mustCurrent()
	th.cpuTime += c.k.Now() - th.scheduledAt
	th.scheduledAt = c.k.Now()
	if c.needResched && len(c.runq) > 0 {
		c.needResched = false
		th.State = Ready
		c.cur = nil
		c.runq = append(c.runq, th)
		c.k.Metrics.Inc("sched.preemptions", 1)
		c.maybeDispatch()
		return
	}
	c.runCurrent()
}

// block parks the current thread (it must be c.cur); resume runs when the
// thread is next scheduled after a wake.
func (c *Core) block(th *Thread, resume func()) {
	if c.cur != th {
		panic("kernel: blocking a thread that is not current")
	}
	th.State = Blocked
	th.resume = resume
	th.cpuTime += c.k.Now() - th.scheduledAt
	c.cur = nil
	c.k.Metrics.Inc("sched.blocks", 1)
	c.goIdleOrDispatch()
}

// wake makes a blocked thread runnable again on its pinned core.
func (k *Kernel) wake(th *Thread) {
	if th.State != Blocked {
		panic("kernel: waking a non-blocked thread")
	}
	k.Cores[th.Core].enqueue(th)
}

// goIdleOrDispatch transitions to the next thread or to idle (entering
// Linux lazy-TLB mode: the loaded mm stays resident — §2.3). The switch to
// the idle task also passes through __schedule, so the policy's
// context-switch hook (LATR's sweep) runs here too — which is what lets
// states complete quickly when threads block at barriers.
func (c *Core) goIdleOrDispatch() {
	if len(c.runq) > 0 {
		c.maybeDispatch()
		return
	}
	if hook := c.ctxSwitchHook(); hook > 0 {
		c.k.Metrics.Observe("policy.ctxswitch_hook", hook)
	}
	if c.curMM != nil {
		if c.k.Opts.Tickless {
			// Tickless kernels never sweep on idle cores, so an idle core
			// must hold no translations at all. The paper flushes on the
			// idle→running transition (§7); flushing on idle entry is
			// observably equivalent (an idle core performs no accesses)
			// and keeps the reuse-invariant checker exact.
			c.flushAllTLB()
			c.curMM.CPUMask.Clear(c.ID)
			delete(c.maskedMMs, c.curMM)
			c.curMM = nil
			c.lazyTLB = false
			c.k.Metrics.Inc("sched.tickless_idle_flush", 1)
		} else {
			c.lazyTLB = true
		}
	}
	c.idleSince = c.k.Now()
}

// startTicks schedules this core's recurring scheduler tick, staggered per
// core so ticks are not synchronized machine-wide (the reason LATR waits
// two tick periods before reclaiming — §3).
func (c *Core) startTicks() {
	period := c.k.Cost.SchedTickPeriod
	phase := period * sim.Time(int(c.ID)+1) / sim.Time(c.k.Spec.NumCores()+1)
	c.tickFn = c.tick
	c.k.Engine.At(c.k.Now()+phase, c.tickFn)
}

// ctxSwitchHook runs the policy's context-switch hook unless the chaos
// injector suppresses this sweep.
func (c *Core) ctxSwitchHook() sim.Time {
	k := c.k
	if inj := k.injector; inj != nil && inj.SuppressSweep(c) {
		k.Metrics.Inc("chaos.sweep_suppressed", 1)
		return 0
	}
	return k.policy.OnContextSwitch(c)
}

func (c *Core) tick(now sim.Time) {
	k := c.k
	if inj := k.injector; inj != nil {
		// Chaos perturbation: drop this tick entirely (the next fires one
		// period later) or postpone it. Both suppress the policy's tick
		// sweep for this period — the delayed-invalidation scenario.
		if drop, delay := inj.TickFault(c); drop {
			k.Metrics.Inc("chaos.tick_dropped", 1)
			k.Engine.At(now+k.Cost.SchedTickPeriod, c.tickFn)
			return
		} else if delay > 0 {
			k.Metrics.Inc("chaos.tick_delayed", 1)
			k.Metrics.Observe("chaos.tick_delay", delay)
			k.Engine.At(now+delay, c.tickFn)
			return
		}
	}
	defer k.Engine.At(now+k.Cost.SchedTickPeriod, c.tickFn)

	if k.Opts.Tickless && c.idle() && len(c.runq) == 0 {
		// Tickless kernels skip the tick on idle cores entirely (§7).
		k.Metrics.Inc("sched.ticks_skipped_idle", 1)
		return
	}
	k.Metrics.Inc("sched.ticks", 1)

	work := k.Cost.SchedTickWork
	if hook := k.policy.OnTick(c); hook > 0 {
		k.Metrics.Observe("policy.tick_hook", hook)
		work += hook
	}
	c.inject(work)

	if c.cur != nil && now-c.quantumStart >= k.Cost.SchedQuantum && len(c.runq) > 0 {
		c.needResched = true
	}
}

// Runnable reports runnable + running threads on the core (for tests).
func (c *Core) Runnable() int {
	n := len(c.runq)
	if c.cur != nil {
		n++
	}
	return n
}
