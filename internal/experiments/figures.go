package experiments

import (
	"fmt"

	"latr/internal/fan"
	"latr/internal/sim"
	"latr/internal/topo"
	"latr/internal/workload"
)

// Fig6 reproduces Figure 6: munmap and shootdown latency for one page on
// the 2-socket/16-core machine, 1–16 cores, Linux vs LATR.
//
// Paper: Linux reaches ~8 µs at 16 cores with the shootdown contributing
// up to 71.6%; LATR cuts munmap by up to 70.8%, to ~2.4 µs.
func Fig6(o Options) *Table {
	t := &Table{
		ID:      "fig6",
		Title:   "munmap() latency, 1 page, 2-socket/16-core",
		Columns: []string{"cores", "linux munmap", "linux shootdown", "latr munmap", "latr shootdown", "latr improvement"},
	}
	iters := o.scale(250, 40)
	spec := topo.TwoSocket16()
	coresList := []int{1, 2, 4, 6, 8, 10, 12, 14, 16}
	rows := fan.Run(o.workers(), coresList, func(_ int, cores int) [2]microResult {
		return [2]microResult{
			runMicro(spec, "linux", cores, 1, iters, o),
			runMicro(spec, "latr", cores, 1, iters, o),
		}
	})
	var last float64
	for i, cores := range coresList {
		lin, lat := rows[i][0], rows[i][1]
		imp := 1 - lat.MunmapNS/lin.MunmapNS
		last = imp
		t.AddRow(fmt.Sprintf("%d", cores),
			fmtUS(lin.MunmapNS), fmtUS(lin.ShootdownNS),
			fmtUS(lat.MunmapNS), fmtUS(lat.ShootdownNS),
			fmtPct(imp))
	}
	t.Note("paper: Linux ~8us @16 cores (71.6%% shootdown); LATR ~2.4us (-70.8%%)")
	t.Note("measured @16 cores: improvement %s", fmtPct(last))
	return t
}

// Fig7 reproduces Figure 7: the same microbenchmark on the 8-socket,
// 120-core machine.
//
// Paper: Linux climbs past 120 µs at 120 cores (shootdown ≈82 µs, 69.3%),
// with a knee beyond 45 cores where two-hop APIC delivery kicks in; LATR
// stays under ~40 µs (−66.7%).
func Fig7(o Options) *Table {
	t := &Table{
		ID:      "fig7",
		Title:   "munmap() latency, 1 page, 8-socket/120-core",
		Columns: []string{"cores", "linux munmap", "linux shootdown", "latr munmap", "latr improvement"},
	}
	iters := o.scale(60, 12)
	spec := topo.EightSocket120()
	coresList := []int{15, 30, 45, 60, 75, 90, 105, 120}
	rows := fan.Run(o.workers(), coresList, func(_ int, cores int) [2]microResult {
		return [2]microResult{
			runMicro(spec, "linux", cores, 1, iters, o),
			runMicro(spec, "latr", cores, 1, iters, o),
		}
	})
	for i, cores := range coresList {
		lin, lat := rows[i][0], rows[i][1]
		t.AddRow(fmt.Sprintf("%d", cores),
			fmtUS(lin.MunmapNS), fmtUS(lin.ShootdownNS),
			fmtUS(lat.MunmapNS),
			fmtPct(1-lat.MunmapNS/lin.MunmapNS))
	}
	t.Note("paper: Linux >120us @120 cores, 69.3%% shootdown, knee past 45 cores (2-hop IPIs); LATR <40us (-66.7%%)")
	return t
}

// Fig8 reproduces Figure 8: munmap cost vs page count at 16 cores.
//
// Paper: LATR's advantage shrinks from ~70.8% at 1 page to 7.5% at 512
// pages as page-table work amortises the shootdown; Linux full-flushes
// past 32 pages.
func Fig8(o Options) *Table {
	t := &Table{
		ID:      "fig8",
		Title:   "munmap() latency vs pages, 16 cores, 2-socket",
		Columns: []string{"pages", "linux munmap", "linux shootdown", "latr munmap", "latr improvement"},
	}
	iters := o.scale(120, 25)
	spec := topo.TwoSocket16()
	pagesList := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	rows := fan.Run(o.workers(), pagesList, func(_ int, pages int) [2]microResult {
		return [2]microResult{
			runMicro(spec, "linux", 16, pages, iters, o),
			runMicro(spec, "latr", 16, pages, iters, o),
		}
	})
	for i, pages := range pagesList {
		lin, lat := rows[i][0], rows[i][1]
		t.AddRow(fmt.Sprintf("%d", pages),
			fmtUS(lin.MunmapNS), fmtUS(lin.ShootdownNS),
			fmtUS(lat.MunmapNS),
			fmtPct(1-lat.MunmapNS/lin.MunmapNS))
	}
	t.Note("paper: improvement ~70.8%% at 1 page decaying to ~7.5%% at 512 pages; full flush past 32 pages caps Linux's shootdown cost")
	return t
}

// Fig9 reproduces Figures 1 and 9: Apache requests/s and TLB shootdowns/s
// for Linux, ABIS and LATR, 2–12 worker cores.
//
// Paper: Linux plateaus past ~6 cores; LATR +59.9% over Linux and +37.9%
// over ABIS at 12 cores while sustaining ~46% more shootdowns; ABIS trails
// Linux below ~8 cores (tracking overhead) and beats it beyond.
func Fig9(o Options) *Table {
	t := &Table{
		ID:      "fig9",
		Title:   "Apache throughput and shootdown rate (also Fig 1)",
		Columns: []string{"cores", "linux req/s", "abis req/s", "latr req/s", "linux sd/s", "abis sd/s", "latr sd/s"},
	}
	dur := o.scaleT(500*sim.Millisecond, 120*sim.Millisecond)
	coresList := []int{2, 4, 6, 8, 10, 12}
	policies := []string{"linux", "abis", "latr"}
	// Flatten (cores × policy) into independent jobs so a wide worker pool
	// keeps every lane busy; rows are reassembled in matrix order below.
	type job struct {
		cores  int
		policy string
	}
	jobs := make([]job, 0, len(coresList)*len(policies))
	for _, cores := range coresList {
		for _, p := range policies {
			jobs = append(jobs, job{cores, p})
		}
	}
	res := fan.Run(o.workers(), jobs, func(_ int, j job) apacheResult {
		return runApache(j.policy, j.cores, dur, o)
	})
	var linux12, abis12, latr12 float64
	for i, cores := range coresList {
		lin, ab, lat := res[3*i], res[3*i+1], res[3*i+2]
		if cores == 12 {
			linux12, abis12, latr12 = lin.ReqPerSec, ab.ReqPerSec, lat.ReqPerSec
		}
		t.AddRow(fmt.Sprintf("%d", cores),
			fmtRate(lin.ReqPerSec), fmtRate(ab.ReqPerSec), fmtRate(lat.ReqPerSec),
			fmtRate(lin.ShootdownPerSec), fmtRate(ab.ShootdownPerSec), fmtRate(lat.ShootdownPerSec))
	}
	t.Note("paper @12 cores: LATR +59.9%% vs Linux, +37.9%% vs ABIS; measured: %s vs Linux, %s vs ABIS",
		fmtPct(latr12/linux12-1), fmtPct(latr12/abis12-1))
	return t
}

// Fig10 reproduces Figure 10: PARSEC normalized runtime (LATR vs Linux)
// and the Linux shootdown rate, 16 cores.
//
// Paper: LATR wins up to 9.6% (dedup), loses at most 1.7% (canneal), and
// averages +1.5% across the suite.
func Fig10(o Options) *Table {
	t := &Table{
		ID:      "fig10",
		Title:   "PARSEC normalized runtime (latr/linux) and shootdowns, 16 cores",
		Columns: []string{"benchmark", "linux sd/s", "normalized runtime", "latr effect"},
	}
	var sumRatio float64
	suite := workload.ParsecSuite()
	rows := fan.Run(o.workers(), suite, func(_ int, prof workload.ParsecProfile) [2]parsecResult {
		return [2]parsecResult{
			runParsec("linux", prof, 16, o),
			runParsec("latr", prof, 16, o),
		}
	})
	for i, prof := range suite {
		lin, lat := rows[i][0], rows[i][1]
		ratio := float64(lat.Runtime) / float64(lin.Runtime)
		sumRatio += ratio
		t.AddRow(prof.Name,
			fmtRate(lin.ShootdownPerSec),
			fmt.Sprintf("%.3f", ratio),
			fmtPct(1-ratio))
	}
	mean := sumRatio / float64(len(suite))
	t.Note("paper: dedup -9.6%%, canneal +1.7%%, suite mean -1.5%%; measured mean %s", fmtPct(1-mean))
	return t
}

// Fig11 reproduces Figure 11: AutoNUMA applications' normalized runtime
// (LATR vs Linux) and migration rate.
//
// Paper: up to 5.7% improvement (graph500), tracking the migration rate;
// PBZIP2 barely moves (application work dominates).
func Fig11(o Options) *Table {
	t := &Table{
		ID:      "fig11",
		Title:   "NUMA balancing: normalized runtime (latr/linux) and migrations",
		Columns: []string{"benchmark", "linux migr/s", "normalized runtime", "latr effect"},
	}
	cores := coresN(16)
	type entry struct {
		name  string
		build func() numaRunnable
	}
	iterScale := o.scale(1, 2) // quick mode halves the fixed work
	entries := []entry{
		{"fluidanimate", func() numaRunnable {
			cfg := workload.FluidanimateConfig(cores)
			cfg.Iterations /= iterScale
			return workload.NewGrid(cfg)
		}},
		{"ocean_cp", func() numaRunnable {
			cfg := workload.OceanConfig(cores)
			cfg.Iterations /= iterScale
			return workload.NewGrid(cfg)
		}},
		{"graph500", func() numaRunnable {
			cfg := workload.DefaultGraph500Config(cores)
			cfg.Roots = max(8, 96/iterScale)
			cfg.Scale = 13
			return workload.NewGraph500(cfg)
		}},
		{"pbzip2", func() numaRunnable {
			cfg := workload.DefaultPBZIP2Config(cores)
			cfg.Blocks /= iterScale
			return workload.NewPBZIP2(cfg)
		}},
		{"metis", func() numaRunnable {
			return workload.NewMetis(cores)
		}},
	}
	rows := fan.Run(o.workers(), entries, func(_ int, e entry) [2]numaResult {
		return [2]numaResult{
			runWithNUMA(newKernel(topo.TwoSocket16(), "linux", o), e.build()),
			runWithNUMA(newKernel(topo.TwoSocket16(), "latr", o), e.build()),
		}
	})
	for i, e := range entries {
		lin, lat := rows[i][0], rows[i][1]
		ratio := float64(lat.Runtime) / float64(lin.Runtime)
		t.AddRow(e.name,
			fmtRate(lin.MigrationsPerSec),
			fmt.Sprintf("%.3f", ratio),
			fmtPct(1-ratio))
	}
	t.Note("paper: up to -5.7%% (graph500); improvement tracks the migration rate; pbzip2 ~flat")
	return t
}

// Fig12 reproduces Figure 12: LATR's overhead on applications with few TLB
// shootdowns (subscripts = core counts).
//
// Paper: at most 1.7% overhead (canneal, from context-switch sweeps); some
// cases slightly improve.
func Fig12(o Options) *Table {
	t := &Table{
		ID:      "fig12",
		Title:   "LATR overhead on low-shootdown applications",
		Columns: []string{"app", "linux sd/s", "normalized performance", "latr effect"},
	}
	dur := o.scaleT(400*sim.Millisecond, 100*sim.Millisecond)

	// Every Fig 12 row is a (linux, latr) pair; servers report throughput
	// ratios, the low-shootdown PARSEC subset inverts runtime into a
	// performance ratio so higher is better everywhere.
	type row struct {
		name string
		run  func() (sdPerSec, perf float64)
	}
	server := func(name string, runSrv func(policy string, cores int, dur sim.Time, o Options) apacheResult) row {
		return row{name, func() (float64, float64) {
			lin := runSrv("linux", 1, dur, o)
			lat := runSrv("latr", 1, dur, o)
			return lin.ShootdownPerSec, lat.ReqPerSec / lin.ReqPerSec
		}}
	}
	rowDefs := []row{server("nginx_1", runNginx), server("apache_1", runApache)}
	for _, name := range []string{"bodytrack", "canneal", "facesim", "ferret", "streamcluster"} {
		prof, ok := workload.ParsecProfileByName(name)
		if !ok {
			panic("missing profile " + name)
		}
		rowDefs = append(rowDefs, row{name + "_16", func() (float64, float64) {
			lin := runParsec("linux", prof, 16, o)
			lat := runParsec("latr", prof, 16, o)
			return lin.ShootdownPerSec, float64(lin.Runtime) / float64(lat.Runtime)
		}})
	}
	results := fan.Run(o.workers(), rowDefs, func(_ int, r row) [2]float64 {
		sd, perf := r.run()
		return [2]float64{sd, perf}
	})
	for i, r := range rowDefs {
		sd, perf := results[i][0], results[i][1]
		t.AddRow(r.name, fmtRate(sd), fmt.Sprintf("%.3f", perf), fmtPct(perf-1))
	}
	t.Note("paper: worst case -1.7%% (canneal, context-switch sweeps); others within ±1%%")
	return t
}
