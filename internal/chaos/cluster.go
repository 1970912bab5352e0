package chaos

// Cluster fault family: whole-node faults injected by the cluster layer
// (internal/cluster) on top of the per-kernel fault classes above. Where a
// Profile perturbs the coherence trigger points inside one machine, a
// ClusterProfile perturbs the fleet — nodes crash and restart, slow down
// by a service-time multiplier, drop off the network for partition
// windows, or shed load from shortened queues. Every window is drawn from
// the cluster's seeded PRNG in event order, so a (seed, profile) pair
// replays the same fleet history byte for byte.

import (
	"fmt"
	"sort"
	"strings"

	"latr/internal/sim"
)

// ClusterProfile parameterises one fleet-level fault schedule. The zero
// value injects nothing ("none"). Gap fields are the mean of an
// exponential inter-fault time per node; a gap of 0 disables that fault
// class entirely.
type ClusterProfile struct {
	Name string

	// Node crash/restart: a crashed node drops its queue and in-flight
	// requests, loses its remote-memory frame pool (fail-over to the disk
	// copies), and refuses connections until it restarts after a downtime
	// in [CrashDownMin, CrashDownMax].
	CrashMeanGap sim.Time
	CrashDownMin sim.Time
	CrashDownMax sim.Time

	// Slow node: service time multiplies by SlowFactorPct/100 for a window
	// in [SlowMin, SlowMax]; the health detector reports the node degraded
	// for the duration.
	SlowMeanGap   sim.Time
	SlowFactorPct int
	SlowMin       sim.Time
	SlowMax       sim.Time

	// Partition: the node keeps executing but the network between it and
	// the front-end silently drops requests and replies for a window in
	// [PartitionMin, PartitionMax]. The front-end only learns through
	// timeouts.
	PartitionMeanGap sim.Time
	PartitionMin     sim.Time
	PartitionMax     sim.Time

	// QueueDepth, when > 0, overrides the per-node request queue bound so
	// overflow load shedding carries real traffic.
	QueueDepth int
}

// String renders the profile name ("none" for the zero profile).
func (p ClusterProfile) String() string {
	if p.Name == "" {
		return "none"
	}
	return p.Name
}

// Zero reports whether the profile injects nothing.
func (p ClusterProfile) Zero() bool {
	return p.CrashMeanGap == 0 && p.SlowMeanGap == 0 &&
		p.PartitionMeanGap == 0 && p.QueueDepth == 0
}

// The built-in cluster profiles. Like the per-kernel set, each stresses
// one robustness mechanism hard while keeping the others quiet: crash
// exercises fail-over and retry, slow-node exercises hedging and the
// degraded health state, partition exercises timeout-driven suspicion,
// and queue-overflow exercises load shedding; flaky-fleet mixes mild
// doses of all four.
var clusterProfiles = map[string]ClusterProfile{
	"node-crash": {
		Name:         "node-crash",
		CrashMeanGap: 60 * sim.Millisecond,
		CrashDownMin: 10 * sim.Millisecond,
		CrashDownMax: 25 * sim.Millisecond,
	},
	"slow-node": {
		Name:          "slow-node",
		SlowMeanGap:   40 * sim.Millisecond,
		SlowFactorPct: 500,
		SlowMin:       8 * sim.Millisecond,
		SlowMax:       25 * sim.Millisecond,
	},
	"partition": {
		Name:             "partition",
		PartitionMeanGap: 70 * sim.Millisecond,
		PartitionMin:     5 * sim.Millisecond,
		PartitionMax:     15 * sim.Millisecond,
	},
	"queue-overflow": {
		Name:       "queue-overflow",
		QueueDepth: 4,
	},
	"flaky-fleet": {
		Name:             "flaky-fleet",
		CrashMeanGap:     150 * sim.Millisecond,
		CrashDownMin:     5 * sim.Millisecond,
		CrashDownMax:     12 * sim.Millisecond,
		SlowMeanGap:      100 * sim.Millisecond,
		SlowFactorPct:    300,
		SlowMin:          5 * sim.Millisecond,
		SlowMax:          15 * sim.Millisecond,
		PartitionMeanGap: 200 * sim.Millisecond,
		PartitionMin:     3 * sim.Millisecond,
		PartitionMax:     8 * sim.Millisecond,
		QueueDepth:       24,
	},
}

// ClusterProfiles returns the built-in cluster fault-profile names, sorted.
func ClusterProfiles() []string {
	names := make([]string, 0, len(clusterProfiles))
	for n := range clusterProfiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ClusterProfileByName looks up a built-in cluster profile; "" and "none"
// resolve to the zero (fault-free) profile.
func ClusterProfileByName(name string) (ClusterProfile, error) {
	if name == "" || name == "none" {
		return ClusterProfile{}, nil
	}
	if p, ok := clusterProfiles[name]; ok {
		return p, nil
	}
	return ClusterProfile{}, fmt.Errorf("chaos: unknown cluster profile %q (have none, %s)",
		name, strings.Join(ClusterProfiles(), ", "))
}
