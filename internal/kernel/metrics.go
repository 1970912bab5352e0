package kernel

import "latr/internal/metrics"

// kernelMetrics holds the kernel's metric handles. New names them all,
// which allocates nothing and inserts nothing: each handle finds its
// registry entry on its first write (see metrics.Counter), so a metric
// the run never touches stays out of Dump. The instant policy counts
// through these too.
type kernelMetrics struct {
	// Scheduler.
	contextSwitches, preemptions, blocks, ticks, ticksSkippedIdle, ticklessIdleFlush metrics.Counter
	ctxswitchHook, tickHook                                                          metrics.Hist

	// Syscalls and faults.
	internalErrors                                                      metrics.Counter
	sysMmap, sysMmapHuge, sysMunmap, sysMadvise, sysMprotect, sysMremap metrics.Counter
	sysFork, sysExitMmap, forkCowSharedPages                            metrics.Counter
	munmapLatency, munmapShootdown, mprotectLatency                     metrics.Hist
	faultDemand, faultMajor, faultProt, faultSegv, faultNUMAHint        metrics.Counter
	faultCowReuse, faultCowBreak                                        metrics.Counter
	semContended                                                        metrics.Counter

	// Shootdowns and IPIs.
	initiated, lazySkipped, deferredFlush, ipiSent, ipiTargets metrics.Counter
	ipiHandled, ipiLeaveMM, ipiDelayedIrqoff, ipiQueued        metrics.Counter
	initiatorWork, ackWait, ipiHandler                         metrics.Hist

	// Chaos injection.
	chaosTickDropped, chaosTickDelayed, chaosSweepSuppressed, chaosIPIDelayed metrics.Counter
	chaosTickDelay, chaosIPIDelay                                             metrics.Hist

	// Auditing and races.
	auditFrameReuse, auditStaleUse, auditVirtLeak, raceStaleRead, raceStaleWrite metrics.Counter

	// Virtualization.
	vmStarts, vmDestroys, vmMigrations, vmExits, eptViolations                  metrics.Counter
	balloonReclaimed, lazyBatches, lazyReclaimed, hostQuiesceIPIs, hatricInvals metrics.Counter
}

func newKernelMetrics(r *metrics.Registry) kernelMetrics {
	return kernelMetrics{
		contextSwitches:   r.NewCounter("sched.context_switches"),
		preemptions:       r.NewCounter("sched.preemptions"),
		blocks:            r.NewCounter("sched.blocks"),
		ticks:             r.NewCounter("sched.ticks"),
		ticksSkippedIdle:  r.NewCounter("sched.ticks_skipped_idle"),
		ticklessIdleFlush: r.NewCounter("sched.tickless_idle_flush"),
		ctxswitchHook:     r.NewHist("policy.ctxswitch_hook"),
		tickHook:          r.NewHist("policy.tick_hook"),

		internalErrors:     r.NewCounter("error.internal"),
		sysMmap:            r.NewCounter("sys.mmap"),
		sysMmapHuge:        r.NewCounter("sys.mmap_huge"),
		sysMunmap:          r.NewCounter("sys.munmap"),
		sysMadvise:         r.NewCounter("sys.madvise"),
		sysMprotect:        r.NewCounter("sys.mprotect"),
		sysMremap:          r.NewCounter("sys.mremap"),
		sysFork:            r.NewCounter("sys.fork"),
		sysExitMmap:        r.NewCounter("sys.exit_mmap"),
		forkCowSharedPages: r.NewCounter("fork.cow_shared_pages"),
		munmapLatency:      r.NewHist("munmap.latency"),
		munmapShootdown:    r.NewHist("munmap.shootdown"),
		mprotectLatency:    r.NewHist("mprotect.latency"),
		faultDemand:        r.NewCounter("fault.demand"),
		faultMajor:         r.NewCounter("fault.major"),
		faultProt:          r.NewCounter("fault.prot"),
		faultSegv:          r.NewCounter("fault.segv"),
		faultNUMAHint:      r.NewCounter("fault.numa_hint"),
		faultCowReuse:      r.NewCounter("fault.cow_reuse"),
		faultCowBreak:      r.NewCounter("fault.cow_break"),
		semContended:       r.NewCounter("sem.contended"),

		initiated:        r.NewCounter("shootdown.initiated"),
		lazySkipped:      r.NewCounter("shootdown.lazy_skipped"),
		deferredFlush:    r.NewCounter("shootdown.deferred_flush"),
		ipiSent:          r.NewCounter("shootdown.ipi"),
		ipiTargets:       r.NewCounter("shootdown.ipi_targets"),
		ipiHandled:       r.NewCounter("ipi.handled"),
		ipiLeaveMM:       r.NewCounter("ipi.leave_mm"),
		ipiDelayedIrqoff: r.NewCounter("ipi.delayed_irqoff"),
		ipiQueued:        r.NewCounter("ipi.queued_behind_handler"),
		initiatorWork:    r.NewHist("shootdown.initiator_work"),
		ackWait:          r.NewHist("shootdown.ack_wait"),
		ipiHandler:       r.NewHist("ipi.handler"),

		chaosTickDropped:     r.NewCounter("chaos.tick_dropped"),
		chaosTickDelayed:     r.NewCounter("chaos.tick_delayed"),
		chaosSweepSuppressed: r.NewCounter("chaos.sweep_suppressed"),
		chaosIPIDelayed:      r.NewCounter("chaos.ipi_delayed"),
		chaosTickDelay:       r.NewHist("chaos.tick_delay"),
		chaosIPIDelay:        r.NewHist("chaos.ipi_delay"),

		auditFrameReuse: r.NewCounter("audit.frame_reuse"),
		auditStaleUse:   r.NewCounter("audit.stale_use"),
		auditVirtLeak:   r.NewCounter("audit.virt_leak"),
		raceStaleRead:   r.NewCounter("race.stale_read"),
		raceStaleWrite:  r.NewCounter("race.stale_write"),

		vmStarts:         r.NewCounter("virt.vm_starts"),
		vmDestroys:       r.NewCounter("virt.vm_destroys"),
		vmMigrations:     r.NewCounter("virt.vm_migrations"),
		vmExits:          r.NewCounter("virt.vm_exits"),
		eptViolations:    r.NewCounter("virt.ept_violations"),
		balloonReclaimed: r.NewCounter("virt.balloon_reclaimed"),
		lazyBatches:      r.NewCounter("virt.lazy_batches"),
		lazyReclaimed:    r.NewCounter("virt.lazy_reclaimed"),
		hostQuiesceIPIs:  r.NewCounter("virt.host_quiesce_ipis"),
		hatricInvals:     r.NewCounter("virt.hatric_invals"),
	}
}
