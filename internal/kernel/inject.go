package kernel

import (
	"latr/internal/sim"
	"latr/internal/topo"
)

// FaultInjector is the kernel's chaos hook surface: a deterministic fault
// schedule (internal/chaos) perturbs the trigger points that TLB-coherence
// correctness depends on. Every method runs inside the event loop, so an
// implementation drawing from a seeded PRNG stays fully reproducible. All
// methods must be cheap; they are consulted on hot paths.
//
// A nil injector (the default) leaves every path untouched.
type FaultInjector interface {
	// TickFault is consulted before a scheduler tick runs on core c.
	// drop skips the whole tick — including the coherence policy's tick
	// sweep — and the next tick fires one period later. delay > 0 (with
	// drop false) postpones this tick by that amount instead.
	TickFault(c *Core) (drop bool, delay sim.Time)

	// SuppressSweep is consulted at each context switch; returning true
	// skips the policy's context-switch hook (LATR's sweep) this once.
	SuppressSweep(c *Core) bool

	// IPIDelay returns extra delivery latency injected into one shootdown
	// IPI from core from to core to (0 for none).
	IPIDelay(from, to topo.CoreID) sim.Time

	// ReclaimStall is consulted before a background reclaim pass; a
	// positive duration postpones the whole pass by that amount.
	ReclaimStall() sim.Time

	// UnsafeReclaim, when true, makes the LATR reclaim thread skip its
	// still-active-state safety check and free lazy memory immediately.
	// This deliberately manufactures the §4.2 invariant violation; it
	// exists solely so negative tests can prove the auditor catches it.
	UnsafeReclaim() bool
}

// SetInjector installs a fault injector. Call it after New and before the
// first Run; installing mid-run is allowed but makes replay depend on the
// installation instant.
func (k *Kernel) SetInjector(inj FaultInjector) { k.injector = inj }

// Injector returns the installed fault injector (nil when chaos is off).
// Policy implementations consult it for the reclaim-path hooks.
func (k *Kernel) Injector() FaultInjector { return k.injector }

// chaosIPIDelay returns the injected extra delivery latency for one IPI,
// recording metrics when it perturbs anything.
func (k *Kernel) chaosIPIDelay(from, to topo.CoreID) sim.Time {
	if k.injector == nil {
		return 0
	}
	d := k.injector.IPIDelay(from, to)
	if d > 0 {
		k.met.chaosIPIDelayed.Inc()
		k.met.chaosIPIDelay.Observe(d)
	}
	return d
}
