package tune

import (
	"fmt"

	latrcore "latr/internal/core"
	"latr/internal/cost"
	"latr/internal/fan"
	"latr/internal/kernel"
	"latr/internal/ptrepl"
	"latr/internal/remote"
	"latr/internal/sim"
	"latr/internal/topo"
)

// Cell is one (workload × topology) fitness cell.
type Cell struct {
	Workload string // "churn" or "memcached"
	Machine  string // "2x8" or "8x15" (topo.PaperNames)
}

func (c Cell) String() string { return c.Workload + "@" + c.Machine }

// cellWorkers is how many cores each cell workload spreads across the
// NUMA nodes besides core 0: churn's shootdown targets, memcached's
// server threads.
var cellWorkers = map[string]int{"churn": 13, "memcached": 12}

// resolve checks the cell and returns its machine and worker cores. The
// cells run on the paper's machines only, the ones the tuner's baselines
// are measured on.
func (c Cell) resolve() (topo.Spec, []topo.CoreID, error) {
	n, ok := cellWorkers[c.Workload]
	if !ok {
		return topo.Spec{}, nil, fmt.Errorf("tune: cell %s: unknown workload %q (want churn or memcached)", c, c.Workload)
	}
	spec, err := topo.PaperByName(c.Machine)
	if err != nil {
		return topo.Spec{}, nil, fmt.Errorf("tune: cell %s: %w", c, err)
	}
	cores, err := spec.SpreadCores(n)
	if err != nil {
		return topo.Spec{}, nil, fmt.Errorf("tune: cell %s: %w", c, err)
	}
	return spec, cores, nil
}

// Cells returns the evaluation matrix: the munmap-burst churn workload on
// both reference machines plus the remote-memory memcached case study on
// the commodity machine (full mode adds the big machine's memcached run —
// in quick mode it costs more than the rest of the matrix combined).
func Cells(quick bool) []Cell {
	cells := []Cell{
		{Workload: "churn", Machine: "2x8"},
		{Workload: "churn", Machine: "8x15"},
		{Workload: "memcached", Machine: "2x8"},
	}
	if !quick {
		cells = append(cells, Cell{Workload: "memcached", Machine: "8x15"})
	}
	return cells
}

// Measurement is the raw multi-objective outcome of one cell run. A zero
// objective means the cell has no such signal (the churn cells serve no
// requests; the memcached cell's frees happen inside the swapper, not as
// munmap calls).
type Measurement struct {
	// MunmapNS is the mean munmap/migration overhead in nanoseconds: the
	// initiator-side latency of the lazy free path that both munmap and
	// page migration ride.
	MunmapNS float64
	// P99NS is the memcached p99 request latency in nanoseconds.
	P99NS float64
	// FallbackRate is the fraction of LATR operations that fell back to
	// a synchronous IPI (queue at the fallback threshold).
	FallbackRate float64
}

// CellScore is one cell's measurement plus its normalized score.
type CellScore struct {
	Cell Cell
	Measurement
	// Score is the weighted sum of the cell's objectives, each normalized
	// by the paper-default measurement of the same cell: 1.0 means "as
	// good as the paper config", below 1.0 beats it. Lower is better.
	Score float64
}

// Fitness is a genome's full evaluation: one score per cell and the
// scalar the search ranks by (the mean of the cell scores).
type Fitness struct {
	Cells []CellScore
	Score float64
}

// Objective weights. Overhead on the free/migration path is the paper's
// headline metric; tail latency is the case-study payoff; the fallback
// rate is the guardrail that keeps the search from "winning" by pushing
// everything onto the sync path.
const (
	weightMunmap   = 0.50
	weightP99      = 0.35
	weightFallback = 0.15
	// fallbackEps regularizes the fallback-rate ratio: the paper default
	// often measures a rate of exactly zero.
	fallbackEps = 0.01
)

// score folds a measurement against its same-cell baseline. Objectives
// missing from the baseline (zero) are skipped and the weights of the
// present ones renormalized.
func score(m, base Measurement) float64 {
	sum, wsum := 0.0, 0.0
	if base.MunmapNS > 0 {
		sum += weightMunmap * (m.MunmapNS / base.MunmapNS)
		wsum += weightMunmap
	}
	if base.P99NS > 0 {
		sum += weightP99 * (m.P99NS / base.P99NS)
		wsum += weightP99
	}
	sum += weightFallback * ((fallbackEps + m.FallbackRate) / (fallbackEps + base.FallbackRate))
	wsum += weightFallback
	return sum / wsum
}

// Evaluator measures genomes over a cell matrix, normalizing every cell
// against the paper-default genome measured once up front. Evaluation is
// pure and deterministic: the same (cells, quick, seed, genome) always
// produces the same Fitness, which is what lets the search fan evaluations
// across any number of workers without changing a byte of its history.
type Evaluator struct {
	cells []Cell
	quick bool
	seed  uint64
	base  []Measurement
}

// NewEvaluator builds an evaluator and measures the per-cell baselines
// under kernel.DefaultTunables. Baselines are measured across workers
// goroutines (order-preserving, so the result is worker-count-invariant).
// Every cell is resolved first: a cell that names an unknown workload or
// machine is an error before anything runs.
func NewEvaluator(cells []Cell, quick bool, seed uint64, workers int) (*Evaluator, error) {
	for _, c := range cells {
		if _, _, err := c.resolve(); err != nil {
			return nil, err
		}
	}
	e := &Evaluator{cells: cells, quick: quick, seed: seed}
	defaults := kernel.DefaultTunables()
	e.base = fan.Run(workers, cells, func(_ int, c Cell) Measurement {
		return e.measure(c, defaults)
	})
	return e, nil
}

// Cells returns the evaluation matrix.
func (e *Evaluator) Cells() []Cell { return e.cells }

// Baseline returns the paper-default measurement of cell i.
func (e *Evaluator) Baseline(i int) Measurement { return e.base[i] }

// Fitness evaluates one genome over every cell.
func (e *Evaluator) Fitness(t kernel.Tunables) Fitness {
	f := Fitness{Cells: make([]CellScore, len(e.cells))}
	for i, c := range e.cells {
		m := e.measure(c, t)
		f.Cells[i] = CellScore{Cell: c, Measurement: m, Score: score(m, e.base[i])}
		f.Score += f.Cells[i].Score
	}
	f.Score /= float64(len(e.cells))
	return f
}

func (e *Evaluator) measure(c Cell, t kernel.Tunables) Measurement {
	k, m := runCell(c, t, e.quick, e.seed, 0)
	_ = k
	return m
}

// newTunedKernel assembles a LATR machine with adaptive page-table
// replication whose every tunable comes from t through
// kernel.Options.Tunables.
func newTunedKernel(spec topo.Spec, t kernel.Tunables, seed uint64, spanLimit int) *kernel.Kernel {
	k := kernel.New(spec, cost.Default(spec), latrcore.New(latrcore.Config{}), kernel.Options{
		Seed:      seed ^ 0x9e3779b9,
		Tunables:  &t,
		SpanLimit: spanLimit,
	})
	if _, err := ptrepl.Install(k, ptrepl.Config{Policy: ptrepl.PolicyAdaptive}); err != nil {
		panic(err)
	}
	return k
}

// runCell executes one (workload × topology) cell under genome t and
// returns the kernel (for span export) plus the measurement. Its callers,
// NewEvaluator and Counterfactual, resolve every cell before running any,
// so a cell that fails to resolve here is a program error.
func runCell(c Cell, t kernel.Tunables, quick bool, seed uint64, spanLimit int) (*kernel.Kernel, Measurement) {
	spec, cores, err := c.resolve()
	if err != nil {
		panic(err)
	}
	if c.Workload == "churn" {
		return runChurn(spec, cores, t, quick, seed, spanLimit)
	}
	return runMemcached(spec, cores, t, quick, seed, spanLimit)
}

// runChurn is the munmap-burst cell: compute threads across the sockets
// keep the address space resident in every TLB while core 0 issues
// back-to-back mmap/munmap pairs — the worst case for state-slot
// recycling, since the initiator never context-switches and slots free
// only at the other cores' sweeps. It measures the munmap/migration
// overhead and the fallback-IPI rate.
func runChurn(spec topo.Spec, targets []topo.CoreID, t kernel.Tunables, quick bool, seed uint64, spanLimit int) (*kernel.Kernel, Measurement) {
	bursts := 400
	if quick {
		bursts = 150
	}
	if spec.NumCores() > 16 {
		bursts /= 2 // the big machine pays more per burst; keep cells balanced
	}
	k := newTunedKernel(spec, t, seed, spanLimit)
	p := k.NewProcess()
	for _, c := range targets {
		p.Spawn(c, kernel.Loop(func(*kernel.Thread) kernel.Op {
			return kernel.Compute(sim.Millisecond)
		}))
	}
	n := 0
	done := false
	p.Spawn(0, kernel.Loop(func(th *kernel.Thread) kernel.Op {
		if n >= 2*bursts {
			done = true
			return kernel.Op{}
		}
		n++
		if n%2 == 1 {
			return kernel.Mmap(4, true).Populate(-1)
		}
		return kernel.Munmap(th.LastAddr, 4)
	}))
	limit := 10 * sim.Second
	for k.Now() < limit && !done {
		k.Run(k.Now() + sim.Millisecond)
	}
	if !done {
		panic(fmt.Sprintf("tune: churn on %s did not finish", spec.Name))
	}
	// Drain: let the last states quiesce and the lazy lists empty, so
	// span-complete counts and fallback totals are stable.
	tt := k.Tunables
	k.Run(k.Now() + 2*tt.SweepPeriod + 2*tt.ReclaimDelay + 2*tt.ReclaimPeriod)
	return k, Measurement{
		MunmapNS:     float64(k.Metrics.Hist("munmap.latency").Mean()),
		FallbackRate: fallbackRate(k),
	}
}

// runMemcached is the tail-latency cell: the §6.2 memcached-over-remote-
// memory case study, measuring p99 request latency and the fallback rate
// of the eviction path's lazy frees.
func runMemcached(spec topo.Spec, workers []topo.CoreID, t kernel.Tunables, quick bool, seed uint64, spanLimit int) (*kernel.Kernel, Measurement) {
	dur := 250 * sim.Millisecond
	if quick {
		dur = 100 * sim.Millisecond
	}
	k := newTunedKernel(remote.Machine(spec), t, seed, spanLimit)
	w := remote.Memcached(k, workers, seed, remote.Config{})

	k.Run(dur)
	if !w.Loaded() {
		panic(fmt.Sprintf("tune: memcached on %s never finished warm-up", spec.Name))
	}
	return k, Measurement{
		P99NS:        float64(w.Latency().P99()),
		FallbackRate: fallbackRate(k),
	}
}

// fallbackRate is the fraction of LATR operations pushed onto the
// synchronous IPI path.
func fallbackRate(k *kernel.Kernel) float64 {
	fb := float64(k.Metrics.Counter("latr.fallback_ipi"))
	rec := float64(k.Metrics.Counter("latr.states_recorded"))
	if fb+rec == 0 {
		return 0
	}
	return fb / (fb + rec)
}
