package experiments

import (
	"fmt"

	"latr/internal/chaos"
	"latr/internal/cluster"
	"latr/internal/fan"
	"latr/internal/sim"
)

// clusterCell is one (policy × router × fault profile) run of the
// multi-machine fleet.
type clusterCell struct {
	policy  string
	router  string
	profile string
}

func clusterCells() []clusterCell {
	var cells []clusterCell
	for _, pol := range []string{"linux", "latr"} {
		for _, rt := range cluster.RouterNames() {
			for _, prof := range []string{"none", "node-crash"} {
				cells = append(cells, clusterCell{pol, rt, prof})
			}
		}
	}
	return cells
}

// runClusterCell executes one fleet configuration. The auditor is on in
// every cell: the acceptance bar is per-policy degradation curves with
// zero coherence violations, crashes or not.
func runClusterCell(c clusterCell, dur sim.Time, o Options) cluster.Result {
	prof, err := chaos.ClusterProfileByName(c.profile)
	if err != nil {
		panic(err)
	}
	prof = scaleProfile(prof, dur)
	cfg := cluster.DefaultConfig()
	cfg.Seed = o.Seed ^ 0x5eed_c105
	cfg.Policy = c.policy
	cfg.Router = c.router
	cfg.Profile = prof
	cfg.Duration = dur
	cfg.HedgeDelay = sim.Millisecond
	// Run the fleet near capacity so losing a machine actually hurts: at the
	// default offered load the survivors absorb a crash for free and every
	// degradation curve is flat. Overload resolves through queueing,
	// shedding and retries, which is the pipeline under test.
	cfg.ArrivalRate = 700_000
	return cluster.New(cfg).Run()
}

// scaleProfile shrinks a fault profile's time windows to the run length.
// The built-in gaps are calibrated for the full 120ms run; an unscaled
// quick run (25ms) would usually end before the first crash is drawn and
// the fault cells would silently reproduce the fault-free ones.
func scaleProfile(p chaos.ClusterProfile, dur sim.Time) chaos.ClusterProfile {
	const full = 120 * sim.Millisecond
	if dur >= full || p.Zero() {
		return p
	}
	s := func(t sim.Time) sim.Time { return t * dur / full }
	p.CrashMeanGap, p.CrashDownMin, p.CrashDownMax = s(p.CrashMeanGap), s(p.CrashDownMin), s(p.CrashDownMax)
	p.SlowMeanGap, p.SlowMin, p.SlowMax = s(p.SlowMeanGap), s(p.SlowMin), s(p.SlowMax)
	p.PartitionMeanGap, p.PartitionMin, p.PartitionMax = s(p.PartitionMeanGap), s(p.PartitionMin), s(p.PartitionMax)
	return p
}

// Cluster runs the fault-tolerant multi-machine fleet: every router ×
// {linux, latr} × {fault-free, node-crash}, measuring what the front-end
// robustness pipeline (timeout, retry with backoff, hedging, health-aware
// routing) preserves of goodput and tail latency when machines die.
//
// The fleet-scale version of the paper's question: per-node, LATR keeps
// shootdown off the swap-out critical path; per-fleet, the question is how
// much of that per-attempt tail survives routing, retries and crashes to
// reach the client's p99.
func Cluster(o Options) *Table {
	t := &Table{
		ID:    "cluster",
		Title: "Fault-tolerant cluster: goodput and tail latency per policy × router × fault profile",
		Columns: []string{"policy", "router", "profile", "goodput", "p50", "p99",
			"retries", "timeouts", "shed", "failed", "viol"},
	}
	dur := o.scaleT(120*sim.Millisecond, 25*sim.Millisecond)
	cells := clusterCells()
	res := fan.Run(o.workers(), cells, func(_ int, c clusterCell) cluster.Result {
		return runClusterCell(c, dur, o)
	})
	for i, c := range cells {
		r := res[i]
		t.AddRow(c.policy, c.router, c.profile,
			fmtRate(r.GoodputPerSec),
			fmtUS(float64(r.Latency.P50())), fmtUS(float64(r.Latency.P99())),
			fmt.Sprintf("%d", r.Retries), fmt.Sprintf("%d", r.Timeouts),
			fmt.Sprintf("%d", r.Shed), fmt.Sprintf("%d", r.Failed),
			fmt.Sprintf("%d", r.Violations))
	}
	// Degradation curves: for each (policy, router), none → node-crash.
	byCell := map[clusterCell]cluster.Result{}
	for i, c := range cells {
		byCell[c] = res[i]
	}
	viol := 0
	for _, r := range res {
		viol += r.Violations
	}
	for _, pol := range []string{"linux", "latr"} {
		for _, rt := range cluster.RouterNames() {
			clean := byCell[clusterCell{pol, rt, "none"}]
			crash := byCell[clusterCell{pol, rt, "node-crash"}]
			if clean.GoodputPerSec == 0 || clean.Latency.P99() == 0 {
				continue
			}
			t.Note("%s/%s: node-crash goodput %s vs %s (%s), p99 %s vs %s (%s), %d requests failed",
				pol, rt,
				fmtRate(crash.GoodputPerSec), fmtRate(clean.GoodputPerSec),
				fmtPct(crash.GoodputPerSec/clean.GoodputPerSec-1),
				fmtUS(float64(crash.Latency.P99())), fmtUS(float64(clean.Latency.P99())),
				fmtPct(float64(crash.Latency.P99())/float64(clean.Latency.P99())-1),
				crash.Failed)
		}
	}
	t.Note("coherence auditor violations across all %d cells: %d", len(cells), viol)
	return t
}
