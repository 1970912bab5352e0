package workload

import (
	"latr/internal/kernel"
	"latr/internal/metrics"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/topo"
)

// The Fig 11 job's shape, per mapper and per reducer.
const (
	metisChunksPerMapper = 3
	metisChunkPages      = 24
	metisColPages        = 4 // intermediate column size (per mapper, per reducer)
	metisMapWork         = 500 * sim.Microsecond
	metisReducePasses    = 6
	metisReduceWork      = 700 * sim.Microsecond
)

// Metis models the single-machine MapReduce framework of Fig 11:
// mappers read node-0-resident input and write per-mapper intermediate
// tables; reducers then make repeated passes over their column across all
// mappers' tables (cross-socket reads that AutoNUMA migrates) and free the
// consumed columns (madvise → shootdowns whose sharer sets are real).
type Metis struct {
	cores []topo.CoreID
	k     *kernel.Kernel
	met   struct{ chunksMapped, reducePasses metrics.Counter }

	interBase []pt.VPN // per-mapper intermediate region base
	finished  int
	total     int
	finishAt  sim.Time
}

// NewMetis returns the workload, with one mapper/reducer thread on each
// of cores.
func NewMetis(cores []topo.CoreID) *Metis {
	if len(cores) == 0 {
		panic("workload: metis needs at least one core")
	}
	return &Metis{cores: cores}
}

// Setup spawns the loader plus one mapper/reducer thread per core.
func (w *Metis) Setup(k *kernel.Kernel) {
	w.k = k
	w.met.chunksMapped = k.Metrics.NewCounter("metis.chunks_mapped")
	w.met.reducePasses = k.Metrics.NewCounter("metis.reduce_passes")
	n := len(w.cores)
	proc := k.NewProcess()
	gate := NewGate(k)
	mapDone := NewBarrier(k, n)
	var input pt.VPN
	inputPages := n * metisChunksPerMapper * metisChunkPages
	w.interBase = make([]pt.VPN, n)

	proc.Spawn(w.cores[0], kernel.Script(
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
	interPages := n * metisColPages // one column per reducer
	for i, core := range w.cores {
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
				if chunk >= metisChunksPerMapper {
					step = 6
					return mapDone.Wait()
				}
				step = 4
				off := (i*metisChunksPerMapper + chunk) * metisChunkPages
				return kernel.TouchRange(input+pt.VPN(off), metisChunkPages, false)
			case 4: // emit intermediate entries across all columns
				step = 5
				return kernel.TouchRange(w.interBase[i], interPages, true)
			case 5:
				chunk++
				step = 3
				w.met.chunksMapped.Inc()
				return kernel.Compute(metisMapWork)
			case 6: // reduce phase: pass over column i of every mapper
				if pass >= metisReducePasses {
					step = 8
					col = 0
					return kernel.Compute(sim.Microsecond)
				}
				if col >= n {
					col = 0
					pass++
					w.met.reducePasses.Inc()
					return kernel.Compute(metisReduceWork)
				}
				step = 7
				return kernel.TouchRange(w.interBase[col]+pt.VPN(i*metisColPages), metisColPages, false).Repeat(32)
			case 7:
				col++
				step = 6
				return kernel.Compute(metisReduceWork / sim.Time(n))
			case 8: // free the consumed columns (true cross-core sharers)
				if col >= n {
					w.finished++
					if w.finished == w.total {
						w.finishAt = w.k.Now()
					}
					return kernel.Op{}
				}
				addr := w.interBase[col] + pt.VPN(i*metisColPages)
				col++
				return kernel.Madvise(addr, metisColPages)
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
