package workload

import (
	"latr/internal/kernel"
	"latr/internal/metrics"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/topo"
)

// PBZIP2Config models parallel in-memory compression (Fig 11): the input
// file is read (first-touched) on node 0, then worker threads across all
// cores grab 100 KB blocks, compress them into freshly mmap'd output
// buffers, and free the buffers — generating both NUMA migration
// candidates (input blocks read from the far socket) and a steady
// mmap/munmap stream.
type PBZIP2Config struct {
	Blocks int
	Cores  []topo.CoreID
}

// DefaultPBZIP2Config returns the Fig 11 configuration.
func DefaultPBZIP2Config(cores []topo.CoreID) PBZIP2Config {
	return PBZIP2Config{Blocks: 96, Cores: cores}
}

// The shape of one block's work.
const (
	pbzip2BlockPages   = 25 // 100 KB blocks
	pbzip2OutPages     = 26 // compressed output buffer
	pbzip2CompressWork = 6 * sim.Millisecond
)

// PBZIP2 is the workload instance.
type PBZIP2 struct {
	cfg PBZIP2Config
	k   *kernel.Kernel
	met struct{ blocks metrics.Counter }

	nextBlock int
	finished  int
	total     int
	finishAt  sim.Time
	done      bool
}

// NewPBZIP2 returns the workload.
func NewPBZIP2(cfg PBZIP2Config) *PBZIP2 {
	if cfg.Blocks <= 0 || len(cfg.Cores) == 0 {
		panic("workload: invalid pbzip2 config")
	}
	return &PBZIP2{cfg: cfg}
}

// Setup spawns the loader and one worker per core.
func (w *PBZIP2) Setup(k *kernel.Kernel) {
	w.k = k
	w.met.blocks = k.Metrics.NewCounter("pbzip2.blocks")
	cfg := w.cfg
	proc := k.NewProcess()
	gate := NewGate(k)
	var input pt.VPN

	proc.Spawn(cfg.Cores[0], kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(cfg.Blocks*pbzip2BlockPages, true).Populate(0)
		},
		func(th *kernel.Thread) kernel.Op {
			input = th.LastAddr
			gate.Open()
			return kernel.Op{}
		},
	))

	w.total = len(cfg.Cores)
	for _, core := range cfg.Cores {
		block := -1
		step := 0
		proc.Spawn(core, kernel.Loop(func(th *kernel.Thread) kernel.Op {
			switch step {
			case 0:
				step = 1
				return gate.Wait()
			case 1: // grab the next block
				if w.nextBlock >= cfg.Blocks {
					w.finished++
					if w.finished == w.total {
						w.finishAt = w.k.Now()
						w.done = true
					}
					return kernel.Op{}
				}
				block = w.nextBlock
				w.nextBlock++
				step = 2
				return kernel.TouchRange(input+pt.VPN(block*pbzip2BlockPages), pbzip2BlockPages, false).Repeat(32)
			case 2: // compress
				step = 3
				return kernel.Compute(pbzip2CompressWork)
			case 3: // allocate the output buffer
				step = 4
				return kernel.Mmap(pbzip2OutPages, true).Populate(-1)
			case 4: // write compressed data
				step = 5
				return kernel.TouchRange(th.LastAddr, pbzip2OutPages, true)
			case 5: // hand off and free the buffer
				step = 1
				w.met.blocks.Inc()
				return kernel.Munmap(th.LastAddr, pbzip2OutPages)
			default:
				panic("unreachable")
			}
		}))
	}
}

// Done reports whether all blocks were compressed.
func (w *PBZIP2) Done() bool { return w.done }

// FinishTime is when the last worker exited.
func (w *PBZIP2) FinishTime() sim.Time { return w.finishAt }
