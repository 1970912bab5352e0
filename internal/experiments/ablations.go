package experiments

import (
	"fmt"

	latrcore "latr/internal/core"
	"latr/internal/cost"
	"latr/internal/fan"
	"latr/internal/kernel"
	"latr/internal/sim"
	"latr/internal/topo"
	"latr/internal/workload"
)

// runMicroWithLATR runs the microbenchmark under LATR with custom knobs.
func runMicroWithLATR(t kernel.Tunables, cores, pages, iters int, o Options) (*kernel.Kernel, microResult) {
	spec := topo.TwoSocket16()
	k := kernel.New(spec, cost.Default(spec), latrcore.New(latrcore.Config{}), kernel.Options{
		Seed: o.Seed, CheckInvariants: o.CheckInvariants, Tunables: &t,
	})
	m := workload.NewMicro(workload.MicroConfig{Cores: cores, Pages: pages, Iters: iters})
	m.Setup(k)
	for k.Now() < 60*sim.Second && !m.Done() {
		k.Run(k.Now() + 50*sim.Millisecond)
	}
	return k, microResult{
		MunmapNS:    float64(k.Metrics.Hist("munmap.latency").Mean()),
		ShootdownNS: float64(k.Metrics.Hist("munmap.shootdown").Mean()),
	}
}

// AblationQueueDepth sweeps the per-core LATR state count (§8 calls out
// the trade-off between state-array size and fallback IPIs). The driver is
// a back-to-back munmap burst — the worst case for slot recycling, since
// the initiating core never context-switches and slots free only at the
// other cores' ticks.
func AblationQueueDepth(o Options) *Table {
	t := &Table{
		ID:      "abl-depth",
		Title:   "Ablation: LATR state-queue depth (munmap burst, 16 cores)",
		Columns: []string{"depth", "munmap mean", "fallback IPIs", "states recorded"},
	}
	bursts := o.scale(600, 150)
	depths := []int{4, 16, 64, 256}
	type row struct {
		mean             float64
		fallback, states uint64
	}
	rows := fan.Run(o.workers(), depths, func(_ int, depth int) row {
		spec := topo.TwoSocket16()
		k := kernel.New(spec, cost.Default(spec), latrcore.New(latrcore.Config{}),
			kernel.Options{Seed: o.Seed, Tunables: &kernel.Tunables{QueueDepth: depth}})
		p := k.NewProcess()
		for c := 1; c < 16; c++ {
			c := c
			p.Spawn(topo.CoreID(c), kernel.Loop(func(*kernel.Thread) kernel.Op {
				return kernel.Compute(sim.Millisecond)
			}))
		}
		n := 0
		p.Spawn(0, kernel.Loop(func(th *kernel.Thread) kernel.Op {
			if n >= 2*bursts {
				return kernel.Op{}
			}
			n++
			if n%2 == 1 {
				return kernel.Mmap(1, true).Populate(-1)
			}
			return kernel.Munmap(th.LastAddr, 1)
		}))
		k.Run(5 * sim.Second)
		return row{
			mean:     float64(k.Metrics.Hist("munmap.latency").Mean()),
			fallback: k.Metrics.Counter("latr.fallback_ipi"),
			states:   k.Metrics.Counter("latr.states_recorded"),
		}
	})
	for i, depth := range depths {
		t.AddRow(fmt.Sprintf("%d", depth),
			fmtUS(rows[i].mean),
			fmt.Sprintf("%d", rows[i].fallback),
			fmt.Sprintf("%d", rows[i].states))
	}
	t.Note("the paper fixes depth at 64; shallow queues push burst traffic onto the synchronous fallback path")
	return t
}

// AblationSweepTriggers compares sweeping at ticks only, context switches
// only, and both (the paper's design) on the context-switch-heavy canneal
// profile.
func AblationSweepTriggers(o Options) *Table {
	t := &Table{
		ID:      "abl-sweep",
		Title:   "Ablation: sweep trigger points (canneal profile, 16 cores)",
		Columns: []string{"triggers", "runtime", "state lifetime p99", "reclaim deferrals"},
	}
	prof, _ := workload.ParsecProfileByName("canneal")
	prof.TotalOps = o.scale(12000, 1500)
	cases := []struct {
		name string
		cfg  latrcore.Config
	}{
		{"tick only", latrcore.Config{DisableContextSwitchSweep: true}},
		{"context switch only", latrcore.Config{DisableTickSweep: true}},
		{"both (paper)", latrcore.Config{}},
	}
	for _, c := range cases {
		spec := topo.TwoSocket16()
		k := kernel.New(spec, cost.Default(spec), latrcore.New(c.cfg), kernel.Options{Seed: o.Seed})
		w := workload.NewParsec(prof, coresN(16))
		w.Setup(k)
		for k.Now() < 120*sim.Second && !w.Done() {
			k.Run(k.Now() + 100*sim.Millisecond)
		}
		t.AddRow(c.name,
			fmt.Sprintf("%v", w.FinishTime()),
			fmt.Sprintf("%v", k.Metrics.Hist("latr.state_lifetime").Quantile(0.99)),
			fmt.Sprintf("%d", k.Metrics.Counter("latr.reclaim_deferred")))
	}
	t.Note("context-switch sweeps bound state lifetime under heavy switching; tick sweeps bound it when threads never switch")
	return t
}

// AblationReclaimDelay sweeps the lazy-reclamation delay (the paper uses
// 2 ms = two tick periods) and reports peak lazy memory.
func AblationReclaimDelay(o Options) *Table {
	t := &Table{
		ID:      "abl-delay",
		Title:   "Ablation: reclamation delay (16-core micro, 64 pages)",
		Columns: []string{"delay", "peak lazy memory", "reclaim deferrals"},
	}
	iters := o.scale(300, 50)
	for _, delay := range []sim.Time{sim.Millisecond, 2 * sim.Millisecond, 4 * sim.Millisecond, 8 * sim.Millisecond} {
		k, _ := runMicroWithLATR(kernel.Tunables{ReclaimDelay: delay}, 16, 64, iters, o)
		t.AddRow(delay.String(),
			fmt.Sprintf("%.2f MB", float64(k.Metrics.GaugePeak("latr.lazy_bytes"))/(1<<20)),
			fmt.Sprintf("%d", k.Metrics.Counter("latr.reclaim_deferred")))
	}
	t.Note("longer delays grow the lazy pool linearly; 2ms (two ticks) is the correctness-sufficient minimum when sweeps are unsynchronized (§4.2)")
	return t
}

// AblationTransport isolates *why* LATR wins: Linux pays interrupts and
// waiting; Barrelfish removes interrupts but keeps waiting; LATR removes
// both; Instant is the unreachable hardware-coherence lower bound.
func AblationTransport(o Options) *Table {
	t := &Table{
		ID:      "abl-transport",
		Title:   "Ablation: what asynchrony buys (16-core micro, 1 page)",
		Columns: []string{"policy", "munmap mean", "shootdown critical path"},
	}
	iters := o.scale(300, 50)
	for _, pol := range []string{"linux", "barrelfish", "latr", "instant"} {
		r := runMicro(topo.TwoSocket16(), pol, 16, 1, iters, o)
		t.AddRow(pol, fmtUS(r.MunmapNS), fmtUS(r.ShootdownNS))
	}
	t.Note("Barrelfish vs Linux = interrupt cost; LATR vs Barrelfish = synchronous waiting; LATR vs instant = the residual laziness overhead")
	return t
}

// AblationPCIDAndTickless exercises the §4.5 and §7 variants on the Apache
// workload.
func AblationPCIDAndTickless(o Options) *Table {
	t := &Table{
		ID:      "abl-variants",
		Title:   "Ablation: PCID and tickless variants (Apache, 8 cores, LATR)",
		Columns: []string{"variant", "req/s", "full TLB flushes", "deferred flushes"},
	}
	dur := o.scaleT(300*sim.Millisecond, 80*sim.Millisecond)
	for _, v := range []struct {
		name string
		opts kernel.Options
	}{
		{"baseline", kernel.Options{}},
		{"pcid", kernel.Options{UsePCID: true}},
		{"tickless", kernel.Options{Tickless: true}},
	} {
		opts := v.opts
		opts.Seed = o.Seed
		spec := topo.TwoSocket16()
		k := kernel.New(spec, cost.Default(spec), latrcore.New(latrcore.Config{}), opts)
		a := workload.NewApache(workload.DefaultApacheConfig(coresN(8)))
		a.Setup(k)
		k.Run(dur)
		flushes := uint64(0)
		for _, c := range k.Cores {
			flushes += c.TLB.Stats.FullFlushes
		}
		t.AddRow(v.name,
			fmtRate(float64(a.Requests())/dur.Seconds()),
			fmt.Sprintf("%d", flushes),
			fmt.Sprintf("%d", k.Metrics.Counter("shootdown.deferred_flush")))
	}
	t.Note("PCID avoids context-switch flushes (§4.5); tickless trades idle ticks for flush-on-idle transitions (§7)")
	return t
}

// AblationTHP exercises the §7 huge-page extension: unmapping the same
// 2 MB of shared memory as 512 base pages versus one huge mapping, under
// Linux and LATR. Huge mappings amortise both the page-table work and the
// invalidation into a single entry.
func AblationTHP(o Options) *Table {
	t := &Table{
		ID:      "abl-thp",
		Title:   "Ablation: 2MB unmap as 512x4K vs 1 huge page (16 cores)",
		Columns: []string{"policy", "4K munmap", "huge munmap", "huge benefit"},
	}
	iters := o.scale(150, 30)
	run := func(policy string, huge bool) float64 {
		spec := topo.TwoSocket16()
		k := newKernel(spec, policy, o)
		p := k.NewProcess()
		for c := 1; c < 16; c++ {
			p.Spawn(topo.CoreID(c), kernel.Loop(func(*kernel.Thread) kernel.Op {
				return kernel.Compute(sim.Millisecond)
			}))
		}
		n := 0
		p.Spawn(0, kernel.Loop(func(th *kernel.Thread) kernel.Op {
			if n >= 2*iters {
				return kernel.Op{}
			}
			n++
			if n%2 == 1 {
				op := kernel.Mmap(512, true).Populate(-1)
				if huge {
					op = op.Huge()
				}
				return op
			}
			return kernel.Munmap(th.LastAddr, 512)
		}))
		k.Run(10 * sim.Second)
		return float64(k.Metrics.Hist("munmap.latency").Mean())
	}
	for _, pol := range []string{"linux", "latr"} {
		small := run(pol, false)
		big := run(pol, true)
		t.AddRow(pol, fmtUS(small), fmtUS(big), fmtPct(1-big/small))
	}
	t.Note("one PMD entry replaces 512 PTE clears and 512 invalidations; LATR's range states cover huge mappings without a new state format (§7)")
	return t
}
