package chaos

import (
	"fmt"
	"sort"
	"strings"

	"latr/internal/kernel"
	"latr/internal/sim"
)

// Profile parameterises one fault schedule: per-class probabilities (each
// consulted at its kernel trigger point) and magnitudes. The zero value
// injects nothing.
type Profile struct {
	Name string

	// Scheduler-tick faults: a dropped tick skips the whole tick (and its
	// LATR sweep); a delayed tick fires up to TickDelayMax late.
	TickDropProb  float64
	TickDelayProb float64
	TickDelayMax  sim.Time

	// SweepSuppressProb skips the context-switch sweep hook.
	SweepSuppressProb float64

	// IPI deliveries stretch by up to IPIDelayMax.
	IPIDelayProb float64
	IPIDelayMax  sim.Time

	// The background reclaim thread stalls for up to ReclaimStallMax.
	ReclaimStallProb float64
	ReclaimStallMax  sim.Time

	// Quiesce windows: the core goes dark — no ticks, no sweeps — for a
	// duration in [QuiesceMin, QuiesceMax].
	QuiesceProb float64
	QuiesceMin  sim.Time
	QuiesceMax  sim.Time

	// QueueDepth, when set, shrinks the LATR state array to force
	// queue-overflow pressure (the fallback-IPI path) under bursty munmap.
	// It reaches the kernel as Tunables.QueueDepth.
	QueueDepth int

	// ReclaimDelay, when set, overrides LATR's lazy-list parking time —
	// the negative profile shortens it so the unsafe free races states
	// that are genuinely still active. It reaches the kernel as
	// Tunables.ReclaimDelay.
	ReclaimDelay sim.Time

	// UnsafeReclaimProb makes the reclaim thread free lazy memory while
	// its state is still active — a deliberate invariant breach for
	// negative tests proving the auditor catches real violations. Never
	// set it in a positive (zero-violations-expected) sweep.
	UnsafeReclaimProb float64
}

// String renders the profile name.
func (p Profile) String() string { return p.Name }

// Tunables returns the kernel knobs the profile sets, for
// kernel.Options.Tunables: zero fields keep the paper defaults, and
// kernel.New validates the rest. It is nil when the profile sets none,
// so a fault-free run builds its kernel exactly as a plain one does.
func (p Profile) Tunables() *kernel.Tunables {
	if p.QueueDepth == 0 && p.ReclaimDelay == 0 {
		return nil
	}
	return &kernel.Tunables{QueueDepth: p.QueueDepth, ReclaimDelay: p.ReclaimDelay}
}

// The standard profiles: each stresses one degradation path hard while
// keeping the others quiet, so a sweep failure points at its trigger.
var profiles = map[string]Profile{
	// tick-drop starves the sweep machinery: ~20% of ticks vanish, more
	// stretch, context-switch sweeps get suppressed, and cores take whole
	// quiesce windows. States must still complete (laggard bits are the
	// gate-timeout escape hatch's job) and reclaim must still only free
	// swept memory.
	"tick-drop": {
		Name:              "tick-drop",
		TickDropProb:      0.20,
		TickDelayProb:     0.25,
		TickDelayMax:      800 * sim.Microsecond,
		SweepSuppressProb: 0.30,
		QuiesceProb:       0.02,
		QuiesceMin:        2 * sim.Millisecond,
		QuiesceMax:        6 * sim.Millisecond,
	},
	// reclaim-stall deschedules the background thread for multi-period
	// stretches and slows IPIs; lazy lists grow but nothing may be freed
	// early or leak.
	"reclaim-stall": {
		Name:             "reclaim-stall",
		ReclaimStallProb: 0.40,
		ReclaimStallMax:  4 * sim.Millisecond,
		IPIDelayProb:     0.20,
		IPIDelayMax:      50 * sim.Microsecond,
	},
	// overflow-pressure shrinks the state queues under the bursty-munmap
	// workload so the synchronous-IPI fallback carries real load, with
	// tick faults keeping queues from draining; latr.fallback_ipi > 0 is
	// asserted, deadlock-freedom is the property under test.
	"overflow-pressure": {
		Name:          "overflow-pressure",
		QueueDepth:    2,
		TickDropProb:  0.15,
		TickDelayProb: 0.15,
		TickDelayMax:  500 * sim.Microsecond,
		IPIDelayProb:  0.10,
		IPIDelayMax:   30 * sim.Microsecond,
	},
	// jitter is the light positive profile: mild, uncorrelated delays on
	// every channel at once — the "slightly unhealthy machine" baseline the
	// litmus suite runs under to shake out schedule-dependent assumptions
	// without starving any mechanism outright.
	"jitter": {
		Name:             "jitter",
		TickDropProb:     0.02,
		TickDelayProb:    0.10,
		TickDelayMax:     200 * sim.Microsecond,
		IPIDelayProb:     0.05,
		IPIDelayMax:      10 * sim.Microsecond,
		ReclaimStallProb: 0.05,
		ReclaimStallMax:  500 * sim.Microsecond,
	},
	// unsafe-reclaim is the negative profile: it breaks the §4.2 safety
	// check on purpose — the sweep machinery is dead (every tick dropped,
	// every context-switch sweep suppressed) while a shortened reclaim
	// delay frees lazy memory out from under the still-active states.
	// Total starvation matters: even a rare surviving sweep flushes the
	// warm TLB entries whose later touches are the stale-use evidence.
	// Runs under it MUST produce auditor violations.
	"unsafe-reclaim": {
		Name:              "unsafe-reclaim",
		UnsafeReclaimProb: 1.0,
		TickDropProb:      1.0,
		SweepSuppressProb: 1.0,
		ReclaimDelay:      200 * sim.Microsecond,
	},
}

// Profiles returns the built-in profile names, sorted.
func Profiles() []string {
	names := make([]string, 0, len(profiles))
	for n := range profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ProfileByName looks up a built-in profile.
func ProfileByName(name string) (Profile, error) {
	if p, ok := profiles[name]; ok {
		return p, nil
	}
	return Profile{}, fmt.Errorf("chaos: unknown profile %q (have %s)",
		name, strings.Join(Profiles(), ", "))
}
