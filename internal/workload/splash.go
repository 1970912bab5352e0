package workload

import (
	"latr/internal/kernel"
	"latr/internal/metrics"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/topo"
)

// GridConfig models the iterative stencil applications of Fig 11
// (SPLASH-2x ocean_cp and PARSEC fluidanimate run with NUMA balancing): a
// grid first-touched on node 0, partitioned into per-thread bands; each
// iteration every thread writes its own band, reads its neighbours' halo
// pages, computes, and barriers. AutoNUMA migrates each band toward its
// owner, converting remote DRAM traffic to local.
type GridConfig struct {
	Name       string
	GridPages  int
	HaloPages  int
	Iterations int
	IterWork   sim.Time
	FreeEvery  int // iterations between scratch-buffer frees (0 = never)
	FreePages  int
	Cores      []topo.CoreID
}

// OceanConfig returns the ocean_cp configuration: large grid, heavy halo
// exchange.
func OceanConfig(cores []topo.CoreID) GridConfig {
	return GridConfig{
		Name:       "ocean_cp",
		GridPages:  1536,
		HaloPages:  3,
		Iterations: 60,
		IterWork:   300 * sim.Microsecond,
		Cores:      cores,
	}
}

// FluidanimateConfig returns the fluidanimate configuration: moderate grid
// with occasional scratch frees (its Fig 10 shootdown rate is ~1k/s).
func FluidanimateConfig(cores []topo.CoreID) GridConfig {
	return GridConfig{
		Name:       "fluidanimate",
		GridPages:  1024,
		HaloPages:  2,
		Iterations: 80,
		IterWork:   250 * sim.Microsecond,
		FreeEvery:  6,
		FreePages:  8,
		Cores:      cores,
	}
}

// Grid is the stencil workload instance.
type Grid struct {
	cfg GridConfig
	k   *kernel.Kernel
	met struct{ scratchFrees metrics.Counter }

	finished int
	total    int
	finishAt sim.Time
}

// NewGrid returns the workload.
func NewGrid(cfg GridConfig) *Grid {
	if len(cfg.Cores) == 0 || cfg.GridPages < len(cfg.Cores) || cfg.Iterations <= 0 {
		panic("workload: invalid grid config")
	}
	return &Grid{cfg: cfg}
}

// Setup spawns the loader and one worker per core.
func (w *Grid) Setup(k *kernel.Kernel) {
	w.k = k
	w.met.scratchFrees = k.Metrics.NewCounter("grid.scratch_frees")
	cfg := w.cfg
	n := len(cfg.Cores)
	proc := k.NewProcess()
	gate := NewGate(k)
	barrier := NewBarrier(k, n)
	var grid pt.VPN

	proc.Spawn(cfg.Cores[0], kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(cfg.GridPages, true).Populate(0)
		},
		func(th *kernel.Thread) kernel.Op {
			grid = th.LastAddr
			gate.Open()
			return kernel.Op{}
		},
	))

	w.total = n
	band := cfg.GridPages / n
	for i, core := range cfg.Cores {
		i := i
		iter := 0
		var scratch pt.VPN
		var halo []pt.VPN // the neighbours' halo pages, reused once read
		step := 0
		proc.Spawn(core, kernel.Loop(func(th *kernel.Thread) kernel.Op {
			myStart := func() pt.VPN { return grid + pt.VPN(i*band) }
			switch step {
			case 0:
				step = 1
				return gate.Wait()
			case 1:
				if cfg.FreeEvery > 0 && scratch == 0 {
					step = 2
					return kernel.Mmap(cfg.FreePages*2, true).Populate(-1)
				}
				step = 3
				return kernel.Compute(sim.Microsecond)
			case 2:
				scratch = th.LastAddr
				step = 3
				return kernel.Compute(sim.Microsecond)
			case 3: // write own band
				if iter >= cfg.Iterations {
					w.finished++
					if w.finished == w.total {
						w.finishAt = w.k.Now()
					}
					return kernel.Op{}
				}
				step = 4
				return kernel.TouchRange(myStart(), band, true).Repeat(64)
			case 4: // read neighbours' halos
				step = 5
				halo = halo[:0]
				if i > 0 {
					for h := 0; h < cfg.HaloPages; h++ {
						halo = append(halo, grid+pt.VPN(i*band-1-h))
					}
				}
				if i < n-1 {
					for h := 0; h < cfg.HaloPages; h++ {
						halo = append(halo, grid+pt.VPN((i+1)*band+h))
					}
				}
				if len(halo) == 0 {
					return kernel.Compute(sim.Microsecond)
				}
				return kernel.Touch(&halo, false).Repeat(64)
			case 5: // compute the stencil
				iter++
				if cfg.FreeEvery > 0 && iter%cfg.FreeEvery == 0 {
					step = 6
				} else {
					step = 7
				}
				return kernel.Compute(cfg.IterWork)
			case 6: // recycle the scratch buffer
				step = 7
				w.met.scratchFrees.Inc()
				return kernel.Madvise(scratch, cfg.FreePages)
			case 7:
				step = 3
				return barrier.Wait()
			default:
				panic("unreachable")
			}
		}))
	}
}

// Done reports whether all iterations completed on every worker.
func (w *Grid) Done() bool { return w.total > 0 && w.finished == w.total }

// FinishTime is when the last worker exited.
func (w *Grid) FinishTime() sim.Time { return w.finishAt }

// Name returns the configured benchmark name.
func (w *Grid) Name() string { return w.cfg.Name }
