package experiments

// This file is the virtualized two-level coherence table: the §6.2.1
// microbenchmark run inside a guest VM whose vCPUs cover every core, under
// the five policies that matter for nested paging — the two bare-metal
// references (linux, latr) and the three that differ only in who keeps the
// EPT level coherent (guest-latr, host-latr, hatric). A host thread
// balloons guest-physical backings mid-run so the host-level reclaim path
// is exercised in every cell, not just the guest shootdown path.

import (
	"fmt"

	"latr/internal/fan"
	"latr/internal/kernel"
	"latr/internal/sim"
	"latr/internal/topo"
	"latr/internal/workload"
)

// virtJob is one cell of the table: a policy on a machine, either inside
// the guest or natively (the native linux rows anchor the amplification
// notes).
type virtJob struct {
	policy  string
	machine string
	native  bool
}

// virtResult is one finished cell.
type virtResult struct {
	micro      microResult
	exitsPerOp float64 // VM exits per munmap iteration
	eptViol    uint64  // EPT violations (reclaimed backings re-touched)
	balloonNS  float64 // host balloon initiator latency
	leaked     int     // adjusted frames still in use at the end (want 0)
}

// virtBalloonPages is the host reclaim pressure applied to every cell: one
// balloon of this many guest-physical backings, 1 ms into the run, while
// the guest vCPUs are mid-benchmark.
const virtBalloonPages = 32

// runVirtMicro executes one virtualized cell: the munmap microbenchmark
// inside a single VM spanning all cores, plus the host balloon.
func runVirtMicro(spec topo.Spec, policy string, pages, iters int, o Options) virtResult {
	k := newKernel(spec, policy, o)
	v := k.NewVM("V1", 4096)
	m := workload.NewMicro(workload.MicroConfig{Cores: spec.NumCores(), Pages: pages, Iters: iters})
	m.SetupProcess(k, k.NewGuestProcess(v))

	// Host reclaim pressure: balloon backings away mid-run. The initiator
	// latency is the cell's host-level measurement — sync modes quiesce
	// every vCPU with IPIs first, host-latr parks the batch and returns,
	// hatric posts precise invalidations over the fabric.
	hp := k.NewProcess()
	var balloonedAt, balloonDone sim.Time
	hp.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op { return kernel.Sleep(sim.Millisecond) },
		func(*kernel.Thread) kernel.Op {
			balloonedAt = k.Now()
			return kernel.Call(func(c *kernel.Core, th *kernel.Thread, done func()) {
				k.BalloonReclaim(c, v, virtBalloonPages, done)
			})
		},
		func(*kernel.Thread) kernel.Op { balloonDone = k.Now(); return kernel.Op{} },
	))

	limit := 60 * sim.Second
	for k.Now() < limit && !m.Done() {
		k.Run(k.Now() + 50*sim.Millisecond)
	}
	if !m.Done() {
		panic(fmt.Sprintf("experiments: virt micro(%s, %s) did not finish", policy, spec.Name))
	}
	// Let host-latr's parked reclaim window and LATR's sweeps drain, then
	// audit the two-level state before reading anything off the kernel.
	k.Run(k.Now() + 2*k.Cost.HostLazyReclaim)
	k.AuditVirt()
	return virtResult{
		micro: microResult{
			MunmapNS:    float64(k.Metrics.Hist("munmap.latency").Mean()),
			ShootdownNS: float64(k.Metrics.Hist("munmap.shootdown").Mean()),
		},
		exitsPerOp: float64(k.Metrics.Counter("virt.vm_exits")) / float64(iters),
		eptViol:    k.Metrics.Counter("virt.ept_violations"),
		balloonNS:  float64(balloonDone - balloonedAt),
		leaked:     k.AdjustedFramesInUse(),
	}
}

// Virt runs the virtualized two-level coherence table. Every row is the
// same guest workload under a different (policy × machine); the native
// linux rows at the top are the bare-metal reference the amplification
// notes divide by.
func Virt(o Options) *Table {
	t := &Table{
		ID:    "virt",
		Title: "Virtualized two-level coherence: guest munmap + host balloon per policy × machine",
		Columns: []string{"policy", "machine", "munmap", "shootdown",
			"exits/op", "ept-viol", "balloon", "leak"},
	}
	pages := 4
	iters := o.scale(60, 12)

	var jobs []virtJob
	for _, mach := range topo.PaperNames() {
		jobs = append(jobs, virtJob{"linux", mach, true})
	}
	for _, pol := range VirtPolicyNames() {
		for _, mach := range topo.PaperNames() {
			jobs = append(jobs, virtJob{pol, mach, false})
		}
	}
	res := fan.Run(o.workers(), jobs, func(_ int, j virtJob) virtResult {
		spec := mustMachine(j.machine)
		if j.native {
			return virtResult{micro: runMicro(spec, j.policy, spec.NumCores(), pages, iters, o)}
		}
		return runVirtMicro(spec, j.policy, pages, iters, o)
	})

	byJob := map[virtJob]virtResult{}
	for i, j := range jobs {
		byJob[j] = res[i]
		if j.native {
			continue
		}
		r := res[i]
		t.AddRow(j.policy, j.machine,
			fmtUS(r.micro.MunmapNS), fmtUS(r.micro.ShootdownNS),
			fmt.Sprintf("%.1f", r.exitsPerOp),
			fmt.Sprintf("%d", r.eptViol),
			fmtUS(r.balloonNS),
			fmt.Sprintf("%d", r.leaked))
	}

	for _, mach := range topo.PaperNames() {
		nat := byJob[virtJob{"linux", mach, true}]
		lin := byJob[virtJob{"linux", mach, false}]
		glt := byJob[virtJob{"guest-latr", mach, false}]
		hlt := byJob[virtJob{"host-latr", mach, false}]
		if nat.micro.MunmapNS == 0 || lin.balloonNS == 0 {
			continue
		}
		t.Note("%s: linux guest munmap %s vs native %s (%.2fx trap-and-fan-out amplification, Yan et al. §2)",
			mach, fmtUS(lin.micro.MunmapNS), fmtUS(nat.micro.MunmapNS),
			lin.micro.MunmapNS/nat.micro.MunmapNS)
		t.Note("%s: guest-latr takes %.1f exits/op against linux's %.1f; host-latr balloon %s vs linux's %s (%s)",
			mach, glt.exitsPerOp, lin.exitsPerOp,
			fmtUS(hlt.balloonNS), fmtUS(lin.balloonNS),
			fmtPct(hlt.balloonNS/lin.balloonNS-1))
	}
	t.Note("every cell balloons %d guest-physical backings at 1ms; leak column is adjusted frames in use after the audit (want 0)", virtBalloonPages)
	return t
}
