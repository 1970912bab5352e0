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

// opCycle is a Program that runs its mmap op once (if set), then returns
// the ops build makes from the mapping's base in a loop. The ops are boxed
// once, so the program allocates nothing per op and every allocation a run
// makes is the kernel's.
type opCycle struct {
	mmap  kernel.Op
	build func(base pt.VPN) []kernel.Op
	ops   []kernel.Op
	i     int
	iters int // completed passes over ops
}

func (p *opCycle) Next(_ sim.Time, th *kernel.Thread) kernel.Op {
	if p.ops == nil {
		if p.mmap != nil {
			op := p.mmap
			p.mmap = nil
			return op
		}
		p.ops = p.build(th.LastAddr)
	}
	op := p.ops[p.i]
	if p.i++; p.i == len(p.ops) {
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
// nothing; one mmap/demand-fault/munmap iteration stays at its policy's
// ceiling.
func TestKernelSteadyStateAllocs(t *testing.T) {
	t.Run("compute-touch-sleep-yield", func(t *testing.T) {
		spec := smallSpec()
		k := kernel.New(spec, cost.Default(spec), kernel.NewInstantPolicy(), kernel.Options{Seed: 1})
		tick := k.Cost.SchedTickPeriod
		p := k.NewProcess()
		var progs []*opCycle
		for i := 0; i < 2; i++ {
			prog := &opCycle{
				mmap: kernel.OpMmap{Pages: 8, Writable: true, Populate: true, Node: -1},
				build: func(base pt.VPN) []kernel.Op {
					return []kernel.Op{
						// Longer than a quantum: the remainder resumes
						// after op boundaries, including after a
						// preemption.
						kernel.OpCompute{D: k.Cost.SchedQuantum + tick/2},
						kernel.OpTouch{Pages: []pt.VPN{base, base + 3, base + 7}, Write: true},
						kernel.OpTouchRange{Start: base, Pages: 8, Write: true},
						kernel.OpSleep{D: 20 * sim.Microsecond},
						kernel.OpYield{},
					}
				},
			}
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
			run := faultMunmapMachine(pc.policy())
			run(200) // warm-up: grow the engine, TLB and allocator tables
			allocs := testing.AllocsPerRun(200, func() { run(1) })
			if allocs > pc.ceiling {
				t.Errorf("one mmap/fault/munmap iteration allocates %v objects, ceiling %v", allocs, pc.ceiling)
			}
		})
	}
}

// faultMunmapLoop is a Program that maps faultPages demand-paged pages,
// touches them (one demand fault each) and unmaps them, over and over.
// The touch and munmap ops name the fresh mapping, so they are boxed per
// iteration: two of each iteration's allocations are the program's own.
type faultMunmapLoop struct {
	step, iters int
}

const faultPages = 8

var mmapDemand kernel.Op = kernel.OpMmap{Pages: faultPages, Writable: true, Node: -1}

func (l *faultMunmapLoop) Next(_ sim.Time, th *kernel.Thread) kernel.Op {
	l.step++
	switch l.step % 3 {
	case 1:
		return mmapDemand
	case 2:
		return kernel.OpTouchRange{Start: th.LastAddr, Pages: faultPages, Write: true}
	default:
		l.iters++
		return kernel.OpMunmap{Addr: th.LastAddr, Pages: faultPages}
	}
}

// faultMunmapMachine builds a 4-core machine under policy: a thread on
// core 0 runs faultMunmapLoop while a thread of the same process computes
// on core 1, so every munmap needs remote coherence (IPIs under linux,
// a LATR state and lazy reclaim under latr). The returned function runs
// the machine until the loop completes n more iterations.
func faultMunmapMachine(policy kernel.Policy) func(n int) {
	spec := smallSpec()
	k := kernel.New(spec, cost.Default(spec), policy, kernel.Options{Seed: 1})
	p := k.NewProcess()
	loop := &faultMunmapLoop{}
	p.Spawn(0, loop)
	p.Spawn(1, &opCycle{build: func(pt.VPN) []kernel.Op {
		return []kernel.Op{kernel.OpCompute{D: 50 * sim.Microsecond}}
	}})
	return func(n int) {
		for end := loop.iters + n; loop.iters < end; {
			if !k.Engine.Step() {
				panic("fault/munmap loop: event queue drained")
			}
		}
	}
}

// faultMunmapPolicies are the coherence policies the fault/munmap loop
// runs under, each with the objects one iteration allocates today as its
// ceiling: the program's two op boxes, the munmap's frame list and
// removed-VMA slice, and the policy's own closures (IPI delivery under
// linux).
var faultMunmapPolicies = []struct {
	name    string
	policy  func() kernel.Policy
	ceiling float64
}{
	{"linux", func() kernel.Policy { return shootdown.NewLinux() }, 15},
	{"latr", func() kernel.Policy { return core.New(core.Config{}) }, 8},
}

// BenchmarkKernelFaultMunmap measures the kernel's munmap/fault layer: one
// op is one mmap, 8 demand faults and one munmap with remote coherence.
func BenchmarkKernelFaultMunmap(b *testing.B) {
	for _, pc := range faultMunmapPolicies {
		b.Run(pc.name, func(b *testing.B) {
			run := faultMunmapMachine(pc.policy())
			run(200)
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
		})
	}
}
