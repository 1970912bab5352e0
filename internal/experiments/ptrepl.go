package experiments

// This file is the page-table replication table: the numaPTE-style policy
// axis (none / replicate-all / adaptive) crossed with the coherence policy
// that maintains the replicas (linux = eager stores, latr = eager stores or
// the lazy-queue ablation) on both machines. The workload splits the NUMA
// walk problem from the maintenance problem: scanner threads — one per
// socket — stream reads over a region larger than the TLB hierarchy, so
// every pass takes hundreds of hardware walks whose cost depends on where
// the page-table pages live, while a churn thread mmap/munmaps a scratch
// region in a tight loop, so every unmap pays the replica-coherence bill.
// none shows the remote-walk tax, replicate-all shows the maintenance tax,
// adaptive shows numaPTE's trade, and the -lazy rows show what LATR's
// per-core queues do to that maintenance bill — the ablation no paper has
// run.

import (
	"fmt"

	"latr/internal/kernel"
	"latr/internal/pt"
	"latr/internal/ptrepl"
	"latr/internal/sim"
	"latr/internal/topo"
)

// ptreplRows is the (policy, mode) sweep; machines multiply it by two.
var ptreplRows = []struct{ policy, mode string }{
	{"linux", "none"},
	{"linux", "replicate-all"},
	{"linux", "adaptive"},
	{"latr", "none"},
	{"latr", "replicate-all"},
	{"latr", "replicate-all-lazy"},
	{"latr", "adaptive"},
	{"latr", "adaptive-lazy"},
}

type ptreplJob struct {
	policy, mode, machine string
}

type ptreplResult struct {
	walkNS     float64 // mean routed hardware-walk cost
	munmapNS   float64 // mean churn munmap latency (replica maintenance)
	remoteFrac float64 // walks that crossed to a remote master
	stores     uint64  // eager replica PTE stores
	parked     uint64  // invalidations parked on the lazy queues
}

// ptreplScanPages is sized past every modelled TLB hierarchy (64 L1 + up
// to 1024 L2), so each scan pass misses and walks for most of the region.
const ptreplScanPages = 1536

// ptreplChurnPages is the scratch mapping the churn thread cycles; 64
// pages keeps each munmap under the full-flush threshold's range-IPI path
// while making the per-page replica bill visible.
const ptreplChurnPages = 64

// runPtreplCell executes one cell: socket-spread scanners over a shared
// region plus an mmap/munmap churn loop, under one (policy, mode, machine).
func runPtreplCell(spec topo.Spec, policy, mode string, o Options) ptreplResult {
	k := newKernel(spec, policy, o)
	rcfg, err := ptrepl.ModeByName(mode)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	if _, err := ptrepl.Install(k, rcfg); err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}

	scanIters := o.scale(30, 6)
	churnIters := o.scale(120, 25)

	p := k.NewProcess()
	var base pt.VPN
	ready := false
	remaining := spec.Sockets + 1 // scanners + churn

	// The mapper populates the shared region from socket 0 — first touch
	// places the master table there — then becomes socket 0's scanner.
	scanner := func(first bool) kernel.Program {
		i := 0
		mapped := !first
		return kernel.Loop(func(th *kernel.Thread) kernel.Op {
			if !mapped {
				mapped = true
				return kernel.Mmap(ptreplScanPages, true).Populate(0)
			}
			if first && !ready {
				base, ready = th.LastAddr, true
			}
			if !ready {
				return kernel.Sleep(50 * sim.Microsecond)
			}
			if i >= scanIters {
				remaining--
				return kernel.Op{}
			}
			i++
			return kernel.TouchRange(base, ptreplScanPages, false)
		})
	}
	p.Spawn(0, scanner(true))
	for s := 1; s < spec.Sockets; s++ {
		p.Spawn(topo.CoreID(s*spec.CoresPerSocket+2), scanner(false))
	}

	// Munmap-heavy churn beside the scanners, on the master socket: every
	// unmap must invalidate ptreplChurnPages entries on every replica —
	// eagerly over the interconnect, or parked on the LATR queues.
	churned, have := 0, false
	p.Spawn(1, kernel.Loop(func(th *kernel.Thread) kernel.Op {
		if !ready {
			return kernel.Sleep(50 * sim.Microsecond)
		}
		if have {
			have = false
			churned++
			return kernel.Munmap(th.LastAddr, ptreplChurnPages)
		}
		if churned >= churnIters {
			remaining--
			return kernel.Op{}
		}
		have = true
		return kernel.Mmap(ptreplChurnPages, true).Populate(0)
	}))

	limit := 60 * sim.Second
	for k.Now() < limit && remaining > 0 {
		k.Run(k.Now() + 50*sim.Millisecond)
	}
	if remaining > 0 {
		panic(fmt.Sprintf("experiments: ptrepl(%s, %s, %s) did not finish", policy, mode, spec.Name))
	}
	// Drain the lazy maintenance window, then require it actually drained:
	// a parked invalidation surviving the drain would be a leak.
	k.Run(k.Now() + 10*sim.Millisecond)
	if stale := k.Metrics.Gauge("ptrepl.stale"); stale != 0 {
		panic(fmt.Sprintf("experiments: ptrepl(%s, %s, %s): %d replica overrides never applied", policy, mode, spec.Name, stale))
	}

	walks := k.Metrics.Counter("ptrepl.walks")
	var remote float64
	if walks > 0 {
		remote = float64(k.Metrics.Counter("ptrepl.remote_walks")) / float64(walks)
	}
	return ptreplResult{
		walkNS:     float64(k.Metrics.Hist("ptrepl.walk").Mean()),
		munmapNS:   float64(k.Metrics.Hist("munmap.latency").Mean()),
		remoteFrac: remote,
		stores:     k.Metrics.Counter("ptrepl.updates"),
		parked:     k.Metrics.Counter("ptrepl.lazy_parked"),
	}
}

// Ptrepl runs the page-table replication table.
func Ptrepl(o Options) *Table {
	t := &Table{
		ID:    "ptrepl",
		Title: "Page-table replication: walk routing vs replica maintenance per policy × mode × machine",
		Columns: []string{"policy", "repl", "maint", "machine",
			"walk", "munmap", "remote%", "stores", "parked"},
	}

	var jobs []ptreplJob
	for _, row := range ptreplRows {
		for _, mach := range topo.PaperNames() {
			jobs = append(jobs, ptreplJob{row.policy, row.mode, mach})
		}
	}
	res := fan(o.workers(), jobs, func(_ int, j ptreplJob) ptreplResult {
		return runPtreplCell(mustMachine(j.machine), j.policy, j.mode, o)
	})

	byJob := map[ptreplJob]ptreplResult{}
	for i, j := range jobs {
		byJob[j] = res[i]
		repl, maint := j.mode, "eager"
		if cfg, err := ptrepl.ModeByName(j.mode); err == nil && cfg.Lazy {
			repl, maint = string(cfg.Policy), "lazy"
		}
		t.AddRow(j.policy, repl, maint, j.machine,
			fmt.Sprintf("%.0fns", res[i].walkNS),
			fmtUS(res[i].munmapNS),
			fmtPct(res[i].remoteFrac),
			fmt.Sprintf("%d", res[i].stores),
			fmt.Sprintf("%d", res[i].parked))
	}

	for _, mach := range topo.PaperNames() {
		none := byJob[ptreplJob{"latr", "none", mach}]
		adap := byJob[ptreplJob{"latr", "adaptive", mach}]
		eager := byJob[ptreplJob{"latr", "replicate-all", mach}]
		lazy := byJob[ptreplJob{"latr", "replicate-all-lazy", mach}]
		if adap.walkNS > 0 {
			t.Note("%s: adaptive replication cuts the mean walk from %.0fns to %.0fns (%.2fx) against the single-master baseline",
				mach, none.walkNS, adap.walkNS, none.walkNS/adap.walkNS)
		}
		if lazy.munmapNS > 0 {
			t.Note("%s: LATR-queued replica invalidation brings the churn munmap from %s (eager stores) to %s (%.2fx) with %d invalidations parked",
				mach, fmtUS(eager.munmapNS), fmtUS(lazy.munmapNS),
				eager.munmapNS/lazy.munmapNS, lazy.parked)
		}
	}
	t.Note("%d-page scans defeat the TLB hierarchy so walk routing dominates reads; the churn thread munmaps %d pages per iteration on the master socket",
		ptreplScanPages, ptreplChurnPages)
	return t
}
