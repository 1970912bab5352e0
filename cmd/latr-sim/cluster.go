package main

// Cluster mode: run the fault-tolerant multi-machine fleet across a
// (policy × router × fault-profile) sweep and print one digest line per
// cell. Cells are isolated simulations, so the fan-out worker count only
// changes wall-clock — the printed lines are byte-identical at any
// -parallel, which is exactly what the CI determinism sweep asserts.
// Nothing host-dependent (wall time, worker count) goes to stdout.

import (
	"fmt"
	"io"

	"latr"
	"latr/internal/fan"
)

// clusterFlags carries the -cluster mode configuration.
type clusterFlags struct {
	policies string
	routers  string
	profiles string
	nodes    int
	machine  string
	duration latr.Time
	hedge    latr.Time
	seed     uint64
	parallel int
}

// clusterCell is one fleet configuration in the sweep.
type clusterCell struct {
	policy, router, profile string
}

// runCluster executes the sweep and prints per-cell result lines in
// deterministic sweep order. Exit status 2 flags coherence violations.
func runCluster(stdout, stderr io.Writer, f clusterFlags) int {
	policies := splitList(f.policies)
	if len(policies) == 0 {
		policies = []string{"linux", "latr"}
	}
	routers := splitList(f.routers)
	if len(routers) == 0 {
		routers = latr.ClusterRouters()
	}
	profiles := splitList(f.profiles)
	if len(profiles) == 0 {
		profiles = []string{"none", "node-crash"}
	}

	var cells []clusterCell
	for _, pol := range policies {
		for _, rt := range routers {
			for _, prof := range profiles {
				cells = append(cells, clusterCell{pol, rt, prof})
			}
		}
	}

	// Validate every cell up front so a typo fails fast, not mid-sweep.
	for _, c := range cells {
		prof, err := latr.ClusterFaultProfileByName(c.profile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		cfg := clusterConfig(f, c, prof)
		if err := cfg.Validate(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	// At least one worker: fan.Run reads 0 or less as GOMAXPROCS.
	results := fan.Run(max(f.parallel, 1), cells, func(_ int, c clusterCell) latr.ClusterResult {
		prof, _ := latr.ClusterFaultProfileByName(c.profile)
		return latr.NewCluster(clusterConfig(f, c, prof)).Run()
	})

	nodes := f.nodes
	if nodes <= 0 {
		nodes = latr.DefaultClusterConfig().Nodes
	}
	violations := 0
	for i, c := range cells {
		r := results[i]
		fmt.Fprintf(stdout, "cluster policy=%s router=%s profile=%s seed=%d nodes=%d "+
			"offered=%d completed=%d failed=%d retries=%d hedges=%d timeouts=%d shed=%d "+
			"goodput=%.0f/s p50=%v p99=%v violations=%d digest=%016x\n",
			c.policy, c.router, c.profile, f.seed, nodes,
			r.Offered, r.Completed, r.Failed, r.Retries, r.Hedges, r.Timeouts, r.Shed,
			r.GoodputPerSec, r.Latency.P50(), r.Latency.P99(), r.Violations, r.Digest)
		violations += r.Violations
	}
	fmt.Fprintf(stdout, "cluster: %d cells, %d violation(s)\n", len(cells), violations)
	if violations > 0 {
		return 2
	}
	return 0
}

// clusterConfig builds one cell's config from the flags.
func clusterConfig(f clusterFlags, c clusterCell, prof latr.ClusterFaultProfile) latr.ClusterConfig {
	cfg := latr.DefaultClusterConfig()
	cfg.Seed = f.seed
	cfg.Policy = c.policy
	cfg.Router = c.router
	cfg.Profile = prof
	cfg.Nodes = f.nodes
	cfg.Machine = f.machine
	cfg.Duration = f.duration
	cfg.HedgeDelay = f.hedge
	return cfg
}
