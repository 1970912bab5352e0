package workload

import (
	"latr/internal/kernel"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/topo"
)

// MicroConfig parameterises the munmap microbenchmark of §6.2.1: a set of
// pages is shared between N cores (each touches them, so every TLB caches
// the translations), then one core munmaps and the shootdown must reach
// all sharers. Figures 6, 7 and 8 are sweeps over Cores and Pages.
type MicroConfig struct {
	Cores int // participating cores (initiator is core 0)
	Pages int // pages per iteration
	Iters int // iterations (the paper runs 250,000; sims use fewer)
}

// Micro is the microbenchmark instance.
type Micro struct {
	cfg  MicroConfig
	k    *kernel.Kernel
	base pt.VPN
	stop bool
	iter int

	b0, b1, b2 *Barrier
	finished   int
	doneAll    bool
}

// NewMicro returns a microbenchmark with the given sweep point.
func NewMicro(cfg MicroConfig) *Micro {
	if cfg.Cores < 1 || cfg.Pages < 1 || cfg.Iters < 1 {
		panic("workload: invalid micro config")
	}
	return &Micro{cfg: cfg}
}

// Setup spawns the benchmark threads in a fresh native process.
func (m *Micro) Setup(k *kernel.Kernel) {
	m.SetupProcess(k, k.NewProcess())
}

// SetupProcess spawns the benchmark threads into p, which may be a guest
// process — the whole benchmark then runs inside a VM, its cores become
// vCPUs, and every shootdown IPI traps through the hypervisor.
func (m *Micro) SetupProcess(k *kernel.Kernel, p *kernel.Process) {
	m.k = k
	m.b0 = NewBarrier(k, m.cfg.Cores)
	m.b1 = NewBarrier(k, m.cfg.Cores)
	m.b2 = NewBarrier(k, m.cfg.Cores)

	// Initiator on core 0.
	step := 0
	p.Spawn(0, kernel.Loop(func(th *kernel.Thread) kernel.Op {
		switch step {
		case 0:
			m.iter++
			if m.iter > m.cfg.Iters {
				m.stop = true
			}
			step = 1
			return m.b0.Wait()
		case 1:
			if m.stop {
				m.threadDone()
				return kernel.Op{}
			}
			step = 2
			return kernel.Mmap(m.cfg.Pages, true).Populate(-1)
		case 2:
			m.base = th.LastAddr
			step = 3
			return m.b1.Wait()
		case 3:
			step = 4
			return m.b2.Wait()
		case 4:
			step = 0
			return kernel.Munmap(m.base, m.cfg.Pages)
		default:
			panic("unreachable")
		}
	}))

	// Sharers. After touching they spin (compute) through the munmap
	// window, as the real benchmark's threads do — they must be running,
	// not idle, or Linux's lazy-TLB mode would exempt them from the IPIs.
	spinWork := 40*sim.Microsecond + sim.Time(k.Spec.NumCores())*sim.Microsecond
	for c := 1; c < m.cfg.Cores; c++ {
		step := 0
		p.Spawn(topo.CoreID(c), kernel.Loop(func(th *kernel.Thread) kernel.Op {
			switch step {
			case 0:
				step = 1
				return m.b0.Wait()
			case 1:
				if m.stop {
					m.threadDone()
					return kernel.Op{}
				}
				step = 2
				return m.b1.Wait()
			case 2:
				step = 3
				return kernel.TouchRange(m.base, m.cfg.Pages, false)
			case 3:
				step = 4
				return m.b2.Wait()
			case 4:
				step = 0
				return kernel.Compute(spinWork)
			default:
				panic("unreachable")
			}
		}))
	}
}

func (m *Micro) threadDone() {
	m.finished++
	if m.finished == m.cfg.Cores {
		m.doneAll = true
	}
}

// Done reports whether all iterations completed.
func (m *Micro) Done() bool { return m.doneAll }

// Iterations reports completed munmap iterations.
func (m *Micro) Iterations() int {
	if m.iter > m.cfg.Iters {
		return m.cfg.Iters
	}
	return m.iter
}
