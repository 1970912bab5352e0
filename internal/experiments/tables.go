package experiments

import (
	"fmt"
	"strings"

	"latr/internal/cache"
	"latr/internal/cost"
	"latr/internal/fan"
	"latr/internal/kernel"
	"latr/internal/obs"
	"latr/internal/sim"
	"latr/internal/topo"
	"latr/internal/workload"
)

// Table1 reproduces Table 1: which virtual-address operations admit a lazy
// shootdown. The matrix is asserted against the implementation: lazy-capable
// operations route through LATR states, the rest through the sync IPI path.
func Table1(Options) *Table {
	t := &Table{
		ID:      "table1",
		Title:   "Lazy-shootdown capability by operation",
		Columns: []string{"class", "operation", "lazy possible", "implemented via"},
	}
	t.AddRow("Free", "munmap()", "yes", "core.Policy.Munmap (LATR state + lazy reclamation)")
	t.AddRow("Free", "madvise(DONTNEED/FREE)", "yes", "core.Policy.Munmap with KeepVMA")
	t.AddRow("Migration", "AutoNUMA page migration", "yes", "core.Policy.NUMAUnmap (lazy PTE change)")
	t.AddRow("Migration", "page swap", "yes", "swap.Swapper (frees via the policy's lazy path)")
	t.AddRow("Migration", "dedup / compaction", "yes", "same mechanism (§3), not separately modelled")
	t.AddRow("Permission", "mprotect()", "no", "kernel.Policy.SyncChange (IPI path for all policies)")
	t.AddRow("Ownership", "fork()/CoW", "no", "kernel.OpFork + breakCoW (write-protect and copy both via SyncChange)")
	t.AddRow("Remap", "mremap()", "no", "SyncChange")
	t.AddRow("Free/Migration", "any lazy op, tuned LATR", "yes", "same LATR paths with knobs from the internal/tune search (exp \"tune\")")
	t.Note("lazy is impossible where PTE changes must be globally visible before the call returns (§8)")
	return t
}

// Table2 reproduces Table 2: property comparison of TLB-coherence
// approaches. The four software rows are implemented in this repository.
func Table2(Options) *Table {
	t := &Table{
		ID:      "table2",
		Title:   "Approach comparison (✓ = has property)",
		Columns: []string{"approach", "async", "non-IPI", "no remote involvement", "no hw changes", "in this repo"},
	}
	t.AddRow("DiDi", "-", "yes", "yes", "-", "-")
	t.AddRow("Oskin et al.", "-", "-", "yes", "-", "-")
	t.AddRow("ARM TLBI", "-", "yes", "yes", "-", "-")
	t.AddRow("UNITD", "-", "yes", "yes", "-", "(instant policy approximates)")
	t.AddRow("HATRIC", "-", "yes", "yes", "-", "(instant policy approximates)")
	t.AddRow("ABIS", "-", "-", "-", "yes", "shootdown.ABIS")
	t.AddRow("Barrelfish", "-", "yes", "-", "yes", "shootdown.Barrelfish")
	t.AddRow("Linux", "-", "-", "-", "yes", "shootdown.Linux")
	t.AddRow("LATR", "yes", "yes", "yes", "yes", "core.Policy")
	t.AddRow("LATR (auto-tuned)", "yes", "yes", "yes", "yes", "core.Policy + internal/tune genome (exp \"tune\")")
	return t
}

// Table3 reproduces Table 3: the two machine configurations.
func Table3(Options) *Table {
	t := &Table{
		ID:      "table3",
		Title:   "Evaluation machines",
		Columns: []string{"property", "commodity (2-socket)", "large NUMA (8-socket)"},
	}
	a, b := topo.TwoSocket16(), topo.EightSocket120()
	t.AddRow("model", "E5-2630 v3 (modelled)", "E7-8870 v2 (modelled)")
	t.AddRow("cores", fmt.Sprintf("%d (%dx%d)", a.NumCores(), a.Sockets, a.CoresPerSocket),
		fmt.Sprintf("%d (%dx%d)", b.NumCores(), b.Sockets, b.CoresPerSocket))
	t.AddRow("RAM", fmt.Sprintf("%d GB", a.MemPerNodeBytes*int64(a.NumNodes())>>30),
		fmt.Sprintf("%d GB", b.MemPerNodeBytes*int64(b.NumNodes())>>30))
	t.AddRow("L1 D-TLB", fmt.Sprintf("%d entries", a.L1TLBEntries), fmt.Sprintf("%d entries", b.L1TLBEntries))
	t.AddRow("L2 TLB", fmt.Sprintf("%d entries", a.L2TLBEntries), fmt.Sprintf("%d entries", b.L2TLBEntries))
	t.AddRow("max IPI hops", fmt.Sprintf("%d", a.MaxHops()), fmt.Sprintf("%d", b.MaxHops()))
	t.AddRow("LATR knobs", "paper defaults or tuned (exp \"tune\")", "paper defaults or tuned (exp \"tune\")")
	return t
}

// Table4 reproduces Table 4: L3 miss ratios under Linux vs LATR. The
// intrinsic per-application ratios come from the paper's Linux column; the
// deltas are produced by the pollution model fed with each run's measured
// interrupt/sweep activity.
func Table4(o Options) *Table {
	t := &Table{
		ID:      "table4",
		Title:   "LLC miss ratio, Linux vs LATR",
		Columns: []string{"application", "linux", "latr", "relative change"},
	}
	dur := o.scaleT(400*sim.Millisecond, 100*sim.Millisecond)

	apache := func(cores int, base float64) {
		lin := runApache("linux", cores, dur, o)
		lat := runApache("latr", cores, dur, o)
		model := cache.DefaultModel(base)
		lm := model.MissRatio(llcActivity(lin.Kernel, dur))
		tm := model.MissRatio(llcActivity(lat.Kernel, dur))
		t.AddRow(fmt.Sprintf("apache_%d", cores),
			fmt.Sprintf("%.2f%%", lm*100), fmt.Sprintf("%.2f%%", tm*100),
			fmt.Sprintf("%+.2f%%", cache.RelativeChange(lm, tm)))
	}
	apache(1, 0.0608)
	apache(6, 0.0160)
	apache(12, 0.0123)

	names := []string{"canneal", "dedup", "ferret", "streamcluster", "swaptions"}
	rows := fan.Run(o.workers(), names, func(_ int, name string) [2]parsecResult {
		prof, ok := workload.ParsecProfileByName(name)
		if !ok {
			panic("missing profile " + name)
		}
		return [2]parsecResult{
			runParsec("linux", prof, 16, o),
			runParsec("latr", prof, 16, o),
		}
	})
	for i, name := range names {
		prof, _ := workload.ParsecProfileByName(name)
		lin, lat := rows[i][0], rows[i][1]
		model := cache.DefaultModel(prof.BaseLLCMiss)
		lm := model.MissRatio(llcActivity(lin.Kernel, lin.Runtime))
		tm := model.MissRatio(llcActivity(lat.Kernel, lat.Runtime))
		t.AddRow(name+"_16",
			fmt.Sprintf("%.2f%%", lm*100), fmt.Sprintf("%.2f%%", tm*100),
			fmt.Sprintf("%+.2f%%", cache.RelativeChange(lm, tm)))
	}
	t.Note("paper: changes between -3.27%% (apache_6) and +0.84%% (apache_1); LATR mostly at or below Linux because removed IPI handlers outweigh the state-array footprint")
	return t
}

// Table5 reproduces Table 5: the operation breakdown during the Apache
// benchmark at 12 cores.
//
// Paper: saving a LATR state 132.3 ns; one sweep visit 158.0 ns; a single
// Linux shootdown 1594.2 ns of initiator work — LATR cuts the critical
// path by up to 81.8%.
func Table5(o Options) *Table {
	t := &Table{
		ID:      "table5",
		Title:   "Operation breakdown (Apache, 12 cores)",
		Columns: []string{"operation", "time"},
	}
	dur := o.scaleT(300*sim.Millisecond, 100*sim.Millisecond)
	lat := runApache("latr", 12, dur, o)
	lin := runApache("linux", 12, dur, o)

	save := float64(lat.Kernel.Metrics.Hist("latr.state_save").Mean())
	sweep := float64(lat.Kernel.Metrics.Hist("latr.sweep_visit").Mean())
	linuxWork := float64(lin.Kernel.Metrics.Hist("shootdown.initiator_work").Mean())
	t.AddRow("saving a LATR state", fmt.Sprintf("%.1fns", save))
	t.AddRow("single state sweep visit", fmt.Sprintf("%.1fns", sweep))
	t.AddRow("single TLB shootdown in Linux (initiator work)", fmt.Sprintf("%.1fns", linuxWork))
	reduction := 1 - save/linuxWork
	t.Note("paper: 132.3ns / 158.0ns / 1594.2ns → LATR reduces the critical-path cost by up to 81.8%%; measured reduction %s", fmtPct(reduction))
	return t
}

// MemOverhead reproduces the §6.4 memory-utilisation analysis: the peak
// size of LATR's lazy lists across microbenchmark configurations.
//
// Paper: 1.5–3 MB for single-page munmaps, bounded by ~21 MB at 16 cores x
// 512 pages, always released within ~2 ms (<0.03% of RAM).
func MemOverhead(o Options) *Table {
	t := &Table{
		ID:      "mem",
		Title:   "LATR lazy-memory overhead (§6.4)",
		Columns: []string{"config", "peak lazy memory", "leftover after run"},
	}
	iters := o.scale(400, 60)
	for _, cfg := range []struct {
		cores, pages int
	}{{2, 1}, {16, 1}, {16, 64}, {16, 512}} {
		k := newKernel(topo.TwoSocket16(), "latr", o)
		m := workload.NewMicro(workload.MicroConfig{Cores: cfg.cores, Pages: cfg.pages, Iters: iters})
		m.Setup(k)
		for k.Now() < 60*sim.Second && !m.Done() {
			k.Run(k.Now() + 50*sim.Millisecond)
		}
		k.Run(k.Now() + 10*sim.Millisecond) // drain reclaim
		peak := k.Metrics.GaugePeak("latr.lazy_bytes")
		left := k.Metrics.Gauge("latr.lazy_bytes")
		t.AddRow(fmt.Sprintf("%d cores x %d pages", cfg.cores, cfg.pages),
			fmt.Sprintf("%.2f MB", float64(peak)/(1<<20)),
			fmt.Sprintf("%d B", left))
	}
	t.Note("paper: 1.5-3 MB for 1-page frees, bounded ~21 MB at 512 pages; all reclaimed within ~2ms (<0.03%% of RAM)")
	return t
}

// IPITable reproduces the §1 cost anchors: raw IPI latency and full
// shootdown cost on both machines.
func IPITable(o Options) *Table {
	t := &Table{
		ID:      "ipi",
		Title:   "IPI and shootdown cost anchors (§1)",
		Columns: []string{"machine", "cores", "1 IPI (worst hop)", "full shootdown"},
	}
	iters := o.scale(120, 25)
	for _, spec := range []topo.Spec{topo.TwoSocket16(), topo.EightSocket120()} {
		m := cost.Default(spec)
		ipi := m.IPIDeliverLatency(spec.MaxHops())
		lin := runMicro(spec, "linux", spec.NumCores(), 1, iters, o)
		t.AddRow(spec.Name, fmt.Sprintf("%d", spec.NumCores()),
			fmtUS(float64(ipi)), fmtUS(lin.ShootdownNS))
	}
	t.Note("paper: IPI 2.7us @16 cores / 6.6us two-hop @120 cores; shootdown ~6us / ~80us")
	return t
}

// figurePolicies are the two sides of the Fig 2 and Fig 3 timelines.
var figurePolicies = [2]string{"linux", "latr"}

// figureLimit bounds the timeline and span retention on the figure
// kernels; the scenarios record far fewer of either, so nothing is
// dropped.
const figureLimit = 4096

// figureKernel builds a machine for the Fig 2 and Fig 3 scenarios. It
// keeps a timeline and retains spans, so one run renders both as text and
// as Perfetto JSON; neither changes the simulation.
func figureKernel(spec topo.Spec, policy string, seed uint64, check bool) *kernel.Kernel {
	return kernel.New(spec, cost.Default(spec), mustPolicy(policy), kernel.Options{
		Seed: seed, CheckInvariants: check, TraceLimit: figureLimit, SpanLimit: figureLimit,
	})
}

// fig2Kernels runs the Fig 2 scenario, a munmap of one shared page on a
// 3-core machine, under each of figurePolicies.
func fig2Kernels(o Options) [2]*kernel.Kernel {
	var ks [2]*kernel.Kernel
	for i, policy := range figurePolicies {
		k := figureKernel(topo.Custom(1, 3), policy, o.Seed, true)
		m := workload.NewMicro(workload.MicroConfig{Cores: 3, Pages: 1, Iters: 1})
		m.Setup(k)
		for k.Now() < sim.Second && !m.Done() {
			k.Run(k.Now() + 10*sim.Millisecond)
		}
		k.Run(k.Now() + 5*sim.Millisecond)
		ks[i] = k
	}
	return ks
}

// fig3Runs runs the Fig 3 scenario, ocean with AutoNUMA sampling and
// migration on the 2-socket machine, under each of figurePolicies.
func fig3Runs(o Options) [2]numaResult {
	var rs [2]numaResult
	for i, policy := range figurePolicies {
		cfg := workload.OceanConfig(coresN(16))
		cfg.Iterations = 20
		k := figureKernel(topo.TwoSocket16(), policy, o.Seed^0x9e3779b9, o.CheckInvariants)
		rs[i] = runWithNUMA(k, workload.NewGrid(cfg))
	}
	return rs
}

// Fig2Timeline renders the Fig 2 munmap timelines (Linux then LATR) as
// traced event logs on a 3-core machine.
func Fig2Timeline(o Options) string {
	out := ""
	for i, k := range fig2Kernels(o) {
		out += fmt.Sprintf("--- Fig 2 (%s): munmap of one shared page on 3 cores ---\n%s\n",
			figurePolicies[i], k.Spans.Render())
	}
	return out
}

// Fig2Perfetto renders the Fig 2 munmap scenario under Linux and LATR as
// Chrome trace-event JSON — one process per policy, one thread lane per
// core (loadable in ui.perfetto.dev).
func Fig2Perfetto(o Options) (string, error) {
	var groups []obs.Group
	for i, k := range fig2Kernels(o) {
		groups = append(groups, obs.Group{
			Label: "fig2 " + figurePolicies[i] + ": munmap of one shared page",
			Pid:   i + 1,
			Spans: k.Spans.Retained(),
		})
	}
	return renderPerfetto(groups)
}

// Fig3Perfetto renders the Fig 3 AutoNUMA scenario under Linux and LATR
// as Chrome trace-event JSON, like Fig2Perfetto.
func Fig3Perfetto(o Options) (string, error) {
	var groups []obs.Group
	for i, res := range fig3Runs(o) {
		groups = append(groups, obs.Group{
			Label: "fig3 " + figurePolicies[i] + ": AutoNUMA sampling + migration",
			Pid:   i + 1,
			Spans: res.Kernel.Spans.Retained(),
		})
	}
	return renderPerfetto(groups)
}

// renderPerfetto writes groups as one Chrome trace-event JSON document.
func renderPerfetto(groups []obs.Group) (string, error) {
	var b strings.Builder
	if err := obs.WritePerfetto(&b, groups...); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Fig3Timeline renders the Fig 3 AutoNUMA timelines (Linux then LATR): the
// sampling unmap of one remotely-accessed page and the following migration.
func Fig3Timeline(o Options) string {
	out := ""
	for i, res := range fig3Runs(o) {
		out += fmt.Sprintf("--- Fig 3 (%s): AutoNUMA sampling + migration ---\n", figurePolicies[i])
		out += fmt.Sprintf("migrations/s=%.0f runtime=%v\n", res.MigrationsPerSec, res.Runtime)
		shown := 0
		for _, l := range res.Kernel.Spans.Timeline() {
			if shown == 60 {
				break
			}
			if l.Cat == "numa" || l.Cat == "latr" || l.Cat == "ipi" {
				out += fmt.Sprintf("%12v core%-3d %-8s %s\n", l.Time, int(l.Core), l.Cat, l.Msg)
				shown++
			}
		}
	}
	return out
}
