package kernel_test

import (
	"testing"

	"latr/internal/core"
	"latr/internal/cost"
	"latr/internal/kernel"
	"latr/internal/pt"
	"latr/internal/shootdown"
	"latr/internal/sim"
	"latr/internal/topo"
)

// opCycle is a Program that first maps and populates pages pages (when
// pages > 0), then returns op(i, base) for i = 0, ..., n-1 over and over,
// base being the mapping's first page. Each op is built inside Next, as
// workloads build theirs, so every allocation a run makes is the kernel's.
type opCycle struct {
	pages, n int
	op       func(i int, base pt.VPN) kernel.Op
	mapped   bool
	base     pt.VPN
	i        int
	iters    int // completed passes over the n ops
}

func (p *opCycle) Next(_ sim.Time, th *kernel.Thread) kernel.Op {
	if p.pages > 0 && !p.mapped {
		p.mapped = true
		return kernel.Mmap(p.pages, true).Populate(-1)
	}
	if p.i == 0 && p.iters == 0 {
		p.base = th.LastAddr
	}
	op := p.op(p.i, p.base)
	if p.i++; p.i == p.n {
		p.i = 0
		p.iters++
	}
	return op
}

func smallSpec() topo.Spec {
	spec := topo.Custom(2, 2)
	spec.MemPerNodeBytes = 64 << 20
	return spec
}

// TestKernelSteadyStateAllocs pins what the kernel allocates per event
// once a machine is warm. Context switches, preemption, compute chunks and
// their remainder, TLB-resident touches, sleeps and yields allocate
// nothing; mmap/demand-fault/munmap iterations with remote coherence stay
// at their policy's ceiling.
func TestKernelSteadyStateAllocs(t *testing.T) {
	t.Run("compute-touch-sleep-yield", func(t *testing.T) {
		spec := smallSpec()
		k := kernel.New(spec, cost.Default(spec), kernel.NewInstantPolicy(), kernel.Options{Seed: 1})
		tick := k.Cost.SchedTickPeriod
		p := k.NewProcess()
		var progs []*opCycle
		for i := 0; i < 2; i++ {
			var list []pt.VPN
			prog := &opCycle{pages: 8, n: 5, op: func(i int, base pt.VPN) kernel.Op {
				switch i {
				case 0:
					// Longer than a quantum: the remainder resumes after
					// op boundaries, including after a preemption.
					return kernel.Compute(k.Cost.SchedQuantum + tick/2)
				case 1:
					list = append(list[:0], base, base+3, base+7)
					return kernel.Touch(&list, true)
				case 2:
					return kernel.TouchRange(base, 8, true)
				case 3:
					return kernel.Sleep(20 * sim.Microsecond)
				default:
					return kernel.Yield()
				}
			}}
			progs = append(progs, prog)
			p.Spawn(0, prog)
		}

		const slice = 4 * sim.Millisecond
		deadline := 10 * slice
		k.Run(deadline) // warm-up: map, fill the TLB, grow the engine's tables
		allocs := testing.AllocsPerRun(50, func() {
			deadline += slice
			k.Run(deadline)
		})
		if allocs != 0 {
			t.Errorf("steady-state kernel slice allocates %v objects, want 0", allocs)
		}
		for i, prog := range progs {
			if prog.iters < 10 {
				t.Errorf("thread %d completed %d op cycles, want at least 10", i, prog.iters)
			}
		}
		if got := k.Metrics.Counter("sched.preemptions"); got == 0 {
			t.Error("no preemptions: the compute remainder never waited out another thread")
		}
	})
	for _, pc := range faultMunmapPolicies {
		t.Run("fault-munmap/"+pc.name, func(t *testing.T) {
			k, run := faultMunmapMachine(pc.policy(), pc.tunables)
			run(faultMunmapWarmup)
			before := k.Metrics.Counter(pc.rises)
			// Objects per 10 iterations: a tenth of an object per
			// iteration still shows, where a per-iteration average would
			// round it down to 0.
			allocs := testing.AllocsPerRun(20, func() { run(10) })
			if allocs > pc.ceiling {
				t.Errorf("10 mmap/fault/munmap iterations allocate %v objects, ceiling %v", allocs, pc.ceiling)
			}
			if k.Metrics.Counter(pc.rises) == before {
				t.Errorf("%s did not rise during the measured iterations", pc.rises)
			}
		})
	}
}

// faultMunmapLoop is a Program that maps faultPages demand-paged pages,
// touches them (one demand fault each) and unmaps them, over and over.
type faultMunmapLoop struct {
	step, iters int
}

const faultPages = 8

func (l *faultMunmapLoop) Next(_ sim.Time, th *kernel.Thread) kernel.Op {
	l.step++
	switch l.step % 3 {
	case 1:
		return kernel.Mmap(faultPages, true)
	case 2:
		return kernel.TouchRange(th.LastAddr, faultPages, true)
	default:
		l.iters++
		return kernel.Munmap(th.LastAddr, faultPages)
	}
}

// faultMunmapMachine builds a 4-core machine under policy and tun (nil
// for the defaults): a thread on core 0 runs faultMunmapLoop while a
// thread of the same process computes on core 1, so every munmap needs
// remote coherence. The returned function runs the machine until the loop
// completes n more iterations.
func faultMunmapMachine(policy kernel.Policy, tun *kernel.Tunables) (*kernel.Kernel, func(n int)) {
	spec := smallSpec()
	k := kernel.New(spec, cost.Default(spec), policy, kernel.Options{Seed: 1, Tunables: tun})
	p := k.NewProcess()
	loop := &faultMunmapLoop{}
	p.Spawn(0, loop)
	p.Spawn(1, &opCycle{n: 1, op: func(int, pt.VPN) kernel.Op { return kernel.Compute(50 * sim.Microsecond) }})
	return k, func(n int) {
		for end := loop.iters + n; loop.iters < end; {
			if !k.Engine.Step() {
				panic("fault/munmap loop: event queue drained")
			}
		}
	}
}

// faultMunmapWarmup is the iterations a fault/munmap machine runs before
// it is measured: enough to grow the engine, TLB and allocator tables and,
// at about 15 µs an iteration, to run well past LATR's 2 ms reclaim delay,
// so its lazy lists and the spans and frame lists they hold reach their
// steady length.
const faultMunmapWarmup = 1000

// faultMunmapPolicies are the coherence paths the fault/munmap loop runs
// under, each with a counter its munmaps move: IPIs after the shootdown
// targets under linux, after the access-bit scan under abis (every third
// munmap, when ABIS distrusts its empty sharer sets), a LATR state and
// lazy reclaim under latr, and with a one-state queue LATR's fallback
// (SendShootdownIPIs, then FreeUnmapped).
//
// ceiling is the objects 10 iterations may allocate. The shootdown path
// allocates nothing; what latr and latr-fallback still allocate comes
// from a bug in core.Policy's reclaimPass, left for a change that may
// move simulated bytes: a reclaim entry whose state slot a newer state
// reuses waits for that state too, so deferred entries pile up, each
// holding its span and frame list, and later unmaps make new ones. With
// the entry checking its state's generation both ceilings are 0.
var faultMunmapPolicies = []struct {
	name     string
	policy   func() kernel.Policy
	tunables *kernel.Tunables
	rises    string
	ceiling  float64
}{
	{"linux", func() kernel.Policy { return shootdown.NewLinux() }, nil, "shootdown.ipi", 0},
	{"latr", func() kernel.Policy { return core.New(core.Config{}) }, nil, "latr.states_recorded", 4},
	{"abis", func() kernel.Policy { return shootdown.NewABIS() }, nil, "shootdown.ipi", 0},
	{"latr-fallback", func() kernel.Policy { return core.New(core.Config{}) }, &kernel.Tunables{QueueDepth: 1}, "latr.fallback_ipi", 1},
}

// BenchmarkKernelFaultMunmap measures the kernel's munmap/fault layer: one
// op is one mmap, 8 demand faults and one munmap with remote coherence.
func BenchmarkKernelFaultMunmap(b *testing.B) {
	for _, pc := range faultMunmapPolicies {
		b.Run(pc.name, func(b *testing.B) {
			_, run := faultMunmapMachine(pc.policy(), pc.tunables)
			run(faultMunmapWarmup)
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
		})
	}
}
