package workload

import (
	"latr/internal/kernel"
	"latr/internal/metrics"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/topo"
)

// MetisConfig models the single-machine MapReduce framework of Fig 11:
// mappers read node-0-resident input and write per-mapper intermediate
// tables; reducers then make repeated passes over their column across all
// mappers' tables (cross-socket reads that AutoNUMA migrates) and free the
// consumed columns (madvise → shootdowns whose sharer sets are real).
type MetisConfig struct {
	Cores           []topo.CoreID
	ChunksPerMapper int
	ChunkPages      int
	ColPages        int // intermediate column size (per mapper, per reducer)
	MapWork         sim.Time
	ReducePasses    int
	ReduceWork      sim.Time
}

// DefaultMetisConfig returns the Fig 11 configuration.
func DefaultMetisConfig(cores []topo.CoreID) MetisConfig {
	return MetisConfig{
		Cores:           cores,
		ChunksPerMapper: 3,
		ChunkPages:      24,
		ColPages:        4,
		MapWork:         500 * sim.Microsecond,
		ReducePasses:    6,
		ReduceWork:      700 * sim.Microsecond,
	}
}

// Metis is the workload instance.
type Metis struct {
	cfg MetisConfig
	k   *kernel.Kernel
	met struct{ chunksMapped, reducePasses metrics.Counter }

	interBase []pt.VPN // per-mapper intermediate region base
	finished  int
	total     int
	finishAt  sim.Time
}

// NewMetis returns the workload.
func NewMetis(cfg MetisConfig) *Metis {
	if len(cfg.Cores) == 0 || cfg.ChunksPerMapper <= 0 {
		panic("workload: invalid metis config")
	}
	return &Metis{cfg: cfg}
}

// Setup spawns the loader plus one mapper/reducer thread per core.
func (w *Metis) Setup(k *kernel.Kernel) {
	w.k = k
	w.met.chunksMapped = k.Metrics.NewCounter("metis.chunks_mapped")
	w.met.reducePasses = k.Metrics.NewCounter("metis.reduce_passes")
	cfg := w.cfg
	n := len(cfg.Cores)
	proc := k.NewProcess()
	gate := NewGate(k)
	mapDone := NewBarrier(k, n)
	var input pt.VPN
	inputPages := n * cfg.ChunksPerMapper * cfg.ChunkPages
	w.interBase = make([]pt.VPN, n)

	proc.Spawn(cfg.Cores[0], kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(inputPages, true).Populate(0)
		},
		func(th *kernel.Thread) kernel.Op {
			input = th.LastAddr
			gate.Open()
			return kernel.Op{}
		},
	))

	w.total = n
	interPages := n * cfg.ColPages // one column per reducer
	for i, core := range cfg.Cores {
		i := i
		chunk := 0
		pass := 0
		col := 0
		step := 0
		proc.Spawn(core, kernel.Loop(func(th *kernel.Thread) kernel.Op {
			switch step {
			case 0:
				step = 1
				return gate.Wait()
			case 1: // allocate this mapper's intermediate table (local node)
				step = 2
				return kernel.Mmap(interPages, true).Populate(-1)
			case 2:
				w.interBase[i] = th.LastAddr
				step = 3
				return kernel.Compute(sim.Microsecond)
			case 3: // map phase: read an input chunk
				if chunk >= cfg.ChunksPerMapper {
					step = 6
					return mapDone.Wait()
				}
				step = 4
				off := (i*cfg.ChunksPerMapper + chunk) * cfg.ChunkPages
				return kernel.TouchRange(input+pt.VPN(off), cfg.ChunkPages, false)
			case 4: // emit intermediate entries across all columns
				step = 5
				return kernel.TouchRange(w.interBase[i], interPages, true)
			case 5:
				chunk++
				step = 3
				w.met.chunksMapped.Inc()
				return kernel.Compute(cfg.MapWork)
			case 6: // reduce phase: pass over column i of every mapper
				if pass >= cfg.ReducePasses {
					step = 8
					col = 0
					return kernel.Compute(sim.Microsecond)
				}
				if col >= n {
					col = 0
					pass++
					w.met.reducePasses.Inc()
					return kernel.Compute(cfg.ReduceWork)
				}
				step = 7
				return kernel.TouchRange(w.interBase[col]+pt.VPN(i*cfg.ColPages), cfg.ColPages, false).Repeat(32)
			case 7:
				col++
				step = 6
				return kernel.Compute(cfg.ReduceWork / sim.Time(n))
			case 8: // free the consumed columns (true cross-core sharers)
				if col >= n {
					w.finished++
					if w.finished == w.total {
						w.finishAt = w.k.Now()
					}
					return kernel.Op{}
				}
				addr := w.interBase[col] + pt.VPN(i*cfg.ColPages)
				col++
				return kernel.Madvise(addr, cfg.ColPages)
			default:
				panic("unreachable")
			}
		}))
	}
}

// Done reports completion of map+reduce on every worker.
func (w *Metis) Done() bool { return w.total > 0 && w.finished == w.total }

// FinishTime is when the last worker exited.
func (w *Metis) FinishTime() sim.Time { return w.finishAt }
