// Package chaos is the deterministic fault-injection layer: a seeded
// schedule of scheduler-tick drops and delays, suppressed context-switch
// sweeps, stretched IPI deliveries, reclaim-thread stalls, core quiesce
// windows, and LATR queue-overflow pressure. Every fault decision is drawn
// from one xoshiro PRNG consulted in event-loop order, so a (seed,
// profile, workload) triple replays byte-identically — a violation found
// in a chaos sweep reproduces exactly from its seed.
//
// The package pairs with the kernel's coherence auditor (kernel.Options
// .Audit): chaos perturbs the trigger points TLB coherence depends on, and
// the auditor reports — with provenance, instead of panicking — any run
// where the invariants actually broke.
package chaos

import (
	"latr/internal/kernel"
	"latr/internal/metrics"
	"latr/internal/sim"
	"latr/internal/topo"
)

// Injector implements kernel.FaultInjector with probabilities and
// magnitudes from a Profile and randomness from a seeded sim.Rand. The
// kernel consults it inside the event loop, so the draw sequence — and
// therefore the whole fault schedule — is a pure function of the seed.
type Injector struct {
	k    *kernel.Kernel
	rng  *sim.Rand
	prof Profile

	// quiesceUntil[core] is the end of the core's current quiesce window
	// (0 when none): a quiesced core drops every tick and suppresses every
	// context-switch sweep until the window closes, modelling a core that
	// has gone offline or is stuck with interrupts disabled.
	quiesceUntil []sim.Time
	// quiesceWindows counts the windows opened (chaos.quiesce_window).
	quiesceWindows metrics.Counter

	faults uint64
}

var _ kernel.FaultInjector = (*Injector)(nil)

// NewInjector returns an injector drawing its schedule from seed. Install
// it with Install before the simulation starts.
func NewInjector(seed uint64, prof Profile) *Injector {
	return &Injector{rng: sim.NewRand(seed ^ 0x9e3779b97f4a7c15), prof: prof}
}

// Install hooks the injector into k. Call once, before the first Run, so
// the fault schedule covers the whole simulation.
func (in *Injector) Install(k *kernel.Kernel) {
	in.k = k
	in.quiesceUntil = make([]sim.Time, k.Spec.NumCores())
	in.quiesceWindows = k.Metrics.NewCounter("chaos.quiesce_window")
	k.SetInjector(in)
}

// Profile returns the active fault profile.
func (in *Injector) Profile() Profile { return in.prof }

// Faults reports how many individual faults the schedule has injected.
func (in *Injector) Faults() uint64 { return in.faults }

// hit draws one Bernoulli decision. Probabilities ≤ 0 never consume
// randomness, so profiles with a fault class disabled stay comparable
// across profiles that share a seed.
func (in *Injector) hit(p float64) bool {
	if p <= 0 {
		return false
	}
	if in.rng.Float64() >= p {
		return false
	}
	in.faults++
	return true
}

// quiesced reports whether core id is inside a quiesce window, possibly
// opening a new one first.
func (in *Injector) quiesced(id topo.CoreID) bool {
	now := in.k.Now()
	if in.quiesceUntil[id] > now {
		return true
	}
	if in.hit(in.prof.QuiesceProb) {
		in.quiesceUntil[id] = now + in.rng.Duration(in.prof.QuiesceMin, in.prof.QuiesceMax)
		in.quiesceWindows.Inc()
		in.k.Spans.Note(now, id, "chaos", "quiesce until %v", in.quiesceUntil[id])
		return true
	}
	return false
}

// TickFault implements kernel.FaultInjector: a quiesced core drops every
// tick; otherwise ticks drop or stretch per the profile's probabilities.
func (in *Injector) TickFault(c *kernel.Core) (bool, sim.Time) {
	if in.quiesced(c.ID) {
		return true, 0
	}
	if in.hit(in.prof.TickDropProb) {
		return true, 0
	}
	if in.hit(in.prof.TickDelayProb) {
		return false, in.rng.Duration(1, in.prof.TickDelayMax)
	}
	return false, 0
}

// SuppressSweep implements kernel.FaultInjector.
func (in *Injector) SuppressSweep(c *kernel.Core) bool {
	return in.quiesceUntil[c.ID] > in.k.Now() || in.hit(in.prof.SweepSuppressProb)
}

// IPIDelay implements kernel.FaultInjector.
func (in *Injector) IPIDelay(from, to topo.CoreID) sim.Time {
	if in.hit(in.prof.IPIDelayProb) {
		return in.rng.Duration(1, in.prof.IPIDelayMax)
	}
	return 0
}

// ReclaimStall implements kernel.FaultInjector.
func (in *Injector) ReclaimStall() sim.Time {
	if in.hit(in.prof.ReclaimStallProb) {
		return in.rng.Duration(1, in.prof.ReclaimStallMax)
	}
	return 0
}

// UnsafeReclaim implements kernel.FaultInjector. Only the negative-test
// profile sets the probability above zero.
func (in *Injector) UnsafeReclaim() bool {
	return in.hit(in.prof.UnsafeReclaimProb)
}
