package experiments

import (
	"fmt"

	"latr/internal/cost"
	"latr/internal/fan"
	"latr/internal/kernel"
	"latr/internal/numa"
	"latr/internal/sim"
	"latr/internal/topo"
	"latr/internal/workload"
)

// This file is the parallel experiment harness. Every simulation run owns a
// private Engine, Kernel, RNG and metrics registry and shares no mutable
// state with any other run, so the (policy × workload × seed × topology)
// matrix is embarrassingly parallel: fan.Run distributes runs across a
// worker pool while keeping results in deterministic matrix order, and the
// regression tests prove per-run fingerprints are byte-identical to a
// sequential execution.

// RunSpec identifies one cell of the experiment matrix.
type RunSpec struct {
	Policy   string
	Workload string // micro, apache, nginx, parsec:<name>, graph500, pbzip2, metis, ocean, fluidanimate
	Machine  string // 2x8, 8x15, or NxM
	Cores    int
	Seed     uint64
	Duration sim.Time // wall-clock cap for the run (virtual time)
	// Micro-workload knobs (0 takes 1 page, 50 iterations); ignored by
	// the others.
	Pages int
	Iters int
	// AutoNUMA enables NUMA balancing for the run.
	AutoNUMA bool
}

// Name renders the spec as a stable, human-readable matrix key.
func (s RunSpec) Name() string {
	return fmt.Sprintf("%s/%s/%s/c%d/seed%d", s.Machine, s.Workload, s.Policy, s.Cores, s.Seed)
}

// RunResult captures the determinism-relevant outcome of one run. The three
// fingerprints cover the engine's event history, every metric the kernel
// recorded, and the event trace — any divergence between a parallel and a
// sequential execution of the same RunSpec shows up here.
type RunResult struct {
	Spec        RunSpec
	SimTime     sim.Time
	Dispatched  uint64
	EngineFP    uint64
	MetricsFP   uint64
	TraceDigest uint64
	Completed   bool   // fixed-work workloads: ran to completion within Duration
	Err         string // non-empty when the spec could not be run
}

// Fingerprint renders the result as one comparable line.
func (r RunResult) Fingerprint() string {
	if r.Err != "" {
		return fmt.Sprintf("%s: error=%s", r.Spec.Name(), r.Err)
	}
	return fmt.Sprintf("%s: sim=%d dispatched=%d engine=%016x metrics=%016x trace=%016x done=%v",
		r.Spec.Name(), int64(r.SimTime), r.Dispatched, r.EngineFP, r.MetricsFP, r.TraceDigest, r.Completed)
}

// matrixTraceLimit keeps a bounded timeline on every matrix run so the
// trace digest is a meaningful third determinism witness.
const matrixTraceLimit = 2048

// RunOne executes a single matrix cell in complete isolation: fresh kernel,
// engine, RNG and metrics. Errors (unknown policy/workload/machine) are
// reported in the result rather than panicking, so one bad cell cannot take
// down a whole parallel sweep.
func RunOne(s RunSpec, o Options) RunResult {
	res := RunResult{Spec: s}
	spec, err := topo.ByName(s.Machine)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	pol, err := NewPolicy(s.Policy)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	if s.Cores <= 0 || s.Cores > spec.NumCores() {
		res.Err = fmt.Sprintf("experiments: %d cores outside machine %s", s.Cores, s.Machine)
		return res
	}
	pages, iters := s.Pages, s.Iters
	if pages <= 0 {
		pages = 1
	}
	if iters <= 0 {
		iters = 50
	}
	w, err := workload.ByName(s.Workload, s.Cores, pages, iters)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	k := kernel.New(spec, cost.Default(spec), pol, kernel.Options{
		Seed:            s.Seed ^ 0x9e3779b9,
		CheckInvariants: o.CheckInvariants,
		TraceLimit:      matrixTraceLimit,
	})
	var an *numa.AutoNUMA
	if s.AutoNUMA {
		an = numa.New(numa.Config{ScanPeriod: 2 * sim.Millisecond, PagesPerScan: 1024})
		an.Install(k)
	}
	w.Setup(k)
	if an != nil {
		// The balancer scans only registered processes, and Setup
		// creates the workload's.
		for _, p := range k.Processes() {
			an.Register(p)
		}
	}

	limit := s.Duration
	if limit <= 0 {
		limit = 200 * sim.Millisecond
	}
	step := 10 * sim.Millisecond
	for k.Now() < limit && !w.Done() {
		next := k.Now() + step
		if next > limit {
			next = limit
		}
		k.Run(next)
	}
	res.SimTime = k.Now()
	res.Dispatched = k.Engine.Dispatched()
	res.EngineFP = k.Engine.Fingerprint()
	res.MetricsFP = k.Metrics.Fingerprint()
	res.TraceDigest = k.Spans.TraceDigest()
	res.Completed = w.Done()
	return res
}

// Matrix describes a (policy × workload × seed × topology) sweep.
type Matrix struct {
	Policies  []string
	Workloads []string
	Machines  []string
	Seeds     []uint64
	Cores     int
	Pages     int
	Iters     int
	Duration  sim.Time
	AutoNUMA  bool
}

// Specs expands the matrix in deterministic order: machines outermost, then
// workloads, policies, seeds. Results merged in this order are comparable
// run-for-run across harness configurations.
func (m Matrix) Specs() []RunSpec {
	specs := make([]RunSpec, 0, len(m.Machines)*len(m.Workloads)*len(m.Policies)*len(m.Seeds))
	for _, machine := range m.Machines {
		for _, wl := range m.Workloads {
			for _, pol := range m.Policies {
				for _, seed := range m.Seeds {
					specs = append(specs, RunSpec{
						Policy:   pol,
						Workload: wl,
						Machine:  machine,
						Cores:    m.Cores,
						Seed:     seed,
						Duration: m.Duration,
						Pages:    m.Pages,
						Iters:    m.Iters,
						AutoNUMA: m.AutoNUMA,
					})
				}
			}
		}
	}
	return specs
}

// DefaultMatrix is the full-matrix sweep behind the paper's headline
// figures: every policy, the two server workloads plus the munmap micro and
// one fixed-work PARSEC profile, two seeds, on the 2-socket machine. Quick
// mode shrinks the simulated duration, not the shape.
func DefaultMatrix(quick bool) Matrix {
	dur := 200 * sim.Millisecond
	if quick {
		dur = 40 * sim.Millisecond
	}
	return Matrix{
		Policies:  PolicyNames(),
		Workloads: []string{"micro", "apache", "nginx", "parsec:dedup"},
		Machines:  []string{"2x8"},
		Seeds:     []uint64{1, 2},
		Cores:     8,
		Duration:  dur,
	}
}

// RunMatrix executes every spec across workers goroutines (workers <= 0:
// GOMAXPROCS) and returns the results in matrix order. Each run is fully
// isolated, so the results — including all three fingerprints per run — are
// identical for every worker count.
func RunMatrix(specs []RunSpec, workers int, o Options) []RunResult {
	return fan.Run(workers, specs, func(_ int, s RunSpec) RunResult {
		return RunOne(s, o)
	})
}
