// Package latr is a simulation-based reproduction of "LATR: Lazy
// Translation Coherence" (Kumar et al., ASPLOS 2018).
//
// LATR replaces the synchronous, IPI-based TLB shootdown of commodity
// operating systems with an asynchronous mechanism: the unmapping core
// records a per-core LATR state; every core invalidates its own TLB while
// sweeping those states at scheduler ticks and context switches; freed
// virtual and physical memory parks on lazy lists until the sweeps are
// provably complete, two tick periods later.
//
// Because the original artifact is a Linux 4.10 kernel patch, this package
// reproduces it on a deterministic discrete-event machine simulator: cores
// with two-level TLBs, 4-level page tables, a per-core scheduler with 1 ms
// ticks, IPIs with per-hop delivery latency and interrupt-off windows, an
// mmap/munmap/madvise/mprotect syscall layer, mmap_sem, and AutoNUMA page
// migration. Four TLB-coherence policies plug into that kernel: stock
// Linux, ABIS (Amit, ATC'17), Barrelfish-style message passing, and LATR
// itself (plus an idealised instant-coherence lower bound).
//
// # Quickstart
//
//	sys := latr.NewSystem(latr.Config{Machine: latr.TwoSocket16, Policy: latr.PolicyLATR})
//	p := sys.NewProcess()
//	p.Spawn(0, latr.Script(
//		func(th *latr.Thread) latr.Op { return latr.Mmap(4, true).Populate(-1) },
//		func(th *latr.Thread) latr.Op { return latr.Munmap(th.LastAddr, 4) },
//	))
//	sys.Run(10 * latr.Millisecond)
//	fmt.Println(sys.Metrics().Hist("munmap.latency").Mean())
//
// Every table and figure of the paper's evaluation, and every ablation and
// extension, is one registered experiment: Experiments lists the ids,
// PaperExperiments the paper's own, and RunExperiment runs one by id. The
// cmd/latr-bench binary wraps them.
package latr

import (
	"io"

	"latr/internal/chaos"
	"latr/internal/cluster"
	"latr/internal/cost"
	"latr/internal/experiments"
	"latr/internal/kernel"
	"latr/internal/litmus"
	"latr/internal/metrics"
	"latr/internal/numa"
	"latr/internal/obs"
	"latr/internal/pt"
	"latr/internal/ptrepl"
	"latr/internal/remote"
	"latr/internal/shootdown"
	"latr/internal/sim"
	"latr/internal/swap"
	"latr/internal/tlb"
	"latr/internal/topo"
	"latr/internal/tune"
)

// Re-exported simulation time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Time is virtual time in nanoseconds.
type Time = sim.Time

// VPN is a virtual page number (virtual address >> 12).
type VPN = pt.VPN

// HugePages is the number of base pages per 2 MB huge page.
const HugePages = pt.HugePages

// Core identifiers and machine topology.
type (
	// CoreID identifies a logical core.
	CoreID = topo.CoreID
	// MachineSpec describes the simulated machine.
	MachineSpec = topo.Spec
)

// Machine presets (Table 3).
var (
	// TwoSocket16 is the paper's commodity 2-socket, 16-core machine.
	TwoSocket16 = topo.TwoSocket16()
	// EightSocket120 is the paper's large 8-socket, 120-core NUMA machine.
	EightSocket120 = topo.EightSocket120()
)

// CustomMachine builds an arbitrary topology.
func CustomMachine(sockets, coresPerSocket int) MachineSpec {
	return topo.Custom(sockets, coresPerSocket)
}

// MachineByName resolves a machine shape: "2x8" (or "small"), "8x15" (or
// "large"), or "NxM" sockets x cores per socket with N, M > 0.
func MachineByName(name string) (MachineSpec, error) { return topo.ByName(name) }

// PolicyKind selects a TLB-coherence mechanism.
type PolicyKind string

// Available coherence policies.
const (
	// PolicyLinux is the stock synchronous IPI shootdown (§2.1).
	PolicyLinux PolicyKind = "linux"
	// PolicyLATR is the paper's lazy mechanism (§4).
	PolicyLATR PolicyKind = "latr"
	// PolicyABIS narrows IPI targets via access-bit sharer tracking.
	PolicyABIS PolicyKind = "abis"
	// PolicyBarrelfish replaces IPIs with polled message passing.
	PolicyBarrelfish PolicyKind = "barrelfish"
	// PolicyInstant is the idealised zero-cost coherence lower bound.
	PolicyInstant PolicyKind = "instant"
)

// Kernel-facing types, re-exported for programs and custom policies.
type (
	// Kernel is the simulated operating system.
	Kernel = kernel.Kernel
	// Process owns an address space.
	Process = kernel.Process
	// Thread is a schedulable execution context.
	Thread = kernel.Thread
	// Program generates a thread's operations.
	Program = kernel.Program
	// Op is one unit of thread work.
	Op = kernel.Op
	// Policy is the TLB-coherence extension point; implement it to plug a
	// custom mechanism into the kernel (see examples/custom-policy). A
	// synchronous mechanism embeds SyncDefaults and writes Name and
	// SyncChange.
	Policy = kernel.Policy
	// SyncDefaults supplies every Policy method but Name and SyncChange:
	// munmap and NUMA unmap built on the installed policy's SyncChange,
	// and hooks that cost nothing. Embed it and override what differs.
	SyncDefaults = kernel.SyncDefaults
	// Unmap describes a free operation handed to a Policy.
	Unmap = kernel.Unmap
	// FrameRef pairs an unmapped virtual page with its physical frame.
	FrameRef = kernel.FrameRef
	// KernelCore is one simulated CPU.
	KernelCore = kernel.Core
	// Registry collects counters, gauges and histograms. Reads go by
	// name and return read-only values; writes go through handles
	// (NewCounter, NewGauge, NewHist, NewPerc) that resolve their name on
	// their first write.
	Registry = metrics.Registry
	// Counter, Gauge, Hist and Perc are the Registry's write handles: an
	// owner takes each once and keeps it (as a custom policy's fields).
	Counter = metrics.Counter
	Gauge   = metrics.Gauge
	Hist    = metrics.Hist
	Perc    = metrics.Perc
	// CostModel holds every latency constant of the machine model.
	CostModel = cost.Model
	// Span is the lifecycle record of one coherence operation.
	Span = obs.Span
	// SpanCollector owns span allocation, phase metrics and retention.
	SpanCollector = obs.Collector
	// SpanGroup labels one span set as a process in a Perfetto export.
	SpanGroup = obs.Group
)

// WritePerfettoGroups writes arbitrary span groups (e.g. one per policy
// run) as a single Chrome trace-event JSON document.
func WritePerfettoGroups(w io.Writer, groups ...SpanGroup) error {
	return obs.WritePerfetto(w, groups...)
}

// Thread operations, re-exported: each builds an Op value, and Op's
// Repeat, Populate, Huge and ForceSync methods adjust one. A Program
// returns the zero Op to end its thread.

// Compute burns CPU time.
func Compute(d Time) Op { return kernel.Compute(d) }

// Sleep blocks without consuming CPU.
func Sleep(d Time) Op { return kernel.Sleep(d) }

// Yield surrenders the CPU.
func Yield() Op { return kernel.Yield() }

// Touch accesses the pages *pages lists, which the caller keeps unchanged
// until the op completes.
func Touch(pages *[]VPN, write bool) Op { return kernel.Touch(pages, write) }

// TouchRange accesses a contiguous page range.
func TouchRange(start VPN, pages int, write bool) Op { return kernel.TouchRange(start, pages, write) }

// Mmap maps a fresh region, demand-paged unless Populate is set.
func Mmap(pages int, writable bool) Op { return kernel.Mmap(pages, writable) }

// Munmap unmaps a region (a lazy-capable free operation).
func Munmap(addr VPN, pages int) Op { return kernel.Munmap(addr, pages) }

// Madvise frees pages but keeps the VA range (MADV_DONTNEED).
func Madvise(addr VPN, pages int) Op { return kernel.Madvise(addr, pages) }

// Mprotect changes protection (always synchronous).
func Mprotect(addr VPN, pages int, writable bool) Op { return kernel.Mprotect(addr, pages, writable) }

// Mremap moves a mapping (always synchronous).
func Mremap(addr VPN, pages int) Op { return kernel.Mremap(addr, pages) }

// Call runs kernel-extension work in thread context; fn must call done
// exactly once.
func Call(fn func(c *KernelCore, th *Thread, done func())) Op { return kernel.Call(fn) }

// Fork creates a copy-on-write child process (always synchronous).
func Fork() Op { return kernel.Fork() }

// Script builds a Program from a fixed step sequence.
func Script(steps ...func(th *Thread) Op) Program { return kernel.Script(steps...) }

// Loop builds a Program that repeats body until it returns the zero Op.
func Loop(body func(th *Thread) Op) Program { return kernel.Loop(body) }

// Coherence auditing and deterministic fault injection, re-exported.
type (
	// Auditor collects structured coherence violations in audit mode.
	Auditor = tlb.Auditor
	// Violation is one structured audit finding.
	Violation = tlb.Violation
	// ViolationKind classifies a coherence-invariant breach.
	ViolationKind = tlb.ViolationKind
	// ChaosProfile parameterises a deterministic fault schedule.
	ChaosProfile = chaos.Profile
	// ChaosInjector implements the kernel's fault-injection hooks from a
	// seeded schedule.
	ChaosInjector = chaos.Injector
	// ChaosRunConfig describes one self-contained chaos run.
	ChaosRunConfig = chaos.RunConfig
	// ChaosResult is what one chaos run reports.
	ChaosResult = chaos.Result
)

// The audit layer's violation classes.
const (
	ViolationFrameReuse  = tlb.ViolationFrameReuse
	ViolationStaleUse    = tlb.ViolationStaleUse
	ViolationLeakedState = tlb.ViolationLeakedState
	ViolationLostWaiter  = tlb.ViolationLostWaiter
)

// ChaosProfiles returns the built-in fault-profile names, sorted.
func ChaosProfiles() []string { return chaos.Profiles() }

// ChaosProfileByName looks up a built-in fault profile.
func ChaosProfileByName(name string) (ChaosProfile, error) { return chaos.ProfileByName(name) }

// NewChaosInjector returns a fault injector drawing its schedule from
// seed; install it on a kernel with Install before running.
func NewChaosInjector(seed uint64, prof ChaosProfile) *ChaosInjector {
	return chaos.NewInjector(seed, prof)
}

// ChaosRun executes one seeded, self-contained chaos run (audit-mode LATR
// kernel, fault schedule, bursty workload) and reports the outcome. Same
// config, same Result, bit for bit.
func ChaosRun(cfg ChaosRunConfig) ChaosResult { return chaos.Run(cfg) }

// Fault-tolerant multi-machine cluster (DESIGN.md §12), re-exported.
type (
	// ClusterConfig tunes one multi-machine cluster run: fleet shape,
	// coherence policy, routing, offered load, hedging, run length and the
	// fault profile.
	ClusterConfig = cluster.Config
	// Cluster is an assembled fleet of kernel+workload machines behind
	// the routing/retry front-end, all on one shared engine.
	Cluster = cluster.Cluster
	// ClusterResult is what one cluster run reports.
	ClusterResult = cluster.Result
	// ClusterHealth is the front-end's per-node health state
	// (healthy → degraded → down → recovering).
	ClusterHealth = cluster.Health
	// ClusterFaultProfile parameterises the fleet-level fault schedule
	// (node crash/restart, slow node, partition, queue overflow).
	ClusterFaultProfile = chaos.ClusterProfile
)

// DefaultClusterConfig returns the default 3-node fleet shape.
func DefaultClusterConfig() ClusterConfig { return cluster.DefaultConfig() }

// NewCluster assembles a fleet; it panics on an invalid config, like
// NewSystem. Run it once with Cluster.Run.
func NewCluster(cfg ClusterConfig) *Cluster { return cluster.New(cfg) }

// ClusterRouters lists the front-end routing policies.
func ClusterRouters() []string { return cluster.RouterNames() }

// ClusterFaultProfiles returns the built-in cluster fault-profile names,
// sorted.
func ClusterFaultProfiles() []string { return chaos.ClusterProfiles() }

// ClusterFaultProfileByName looks up a built-in cluster fault profile;
// "" and "none" resolve to the fault-free profile.
func ClusterFaultProfileByName(name string) (ClusterFaultProfile, error) {
	return chaos.ClusterProfileByName(name)
}

// AutoNUMAConfig tunes the AutoNUMA balancer.
type AutoNUMAConfig = numa.Config

// Per-socket page-table replication (numaPTE-style; DESIGN.md §15),
// re-exported.
type (
	// PtreplConfig tunes the page-table replication subsystem: the
	// replication policy and lazy vs eager replica maintenance. The
	// adaptive thresholds come from Config.Tunables.
	PtreplConfig = ptrepl.Config
	// PtreplPolicy selects which address spaces get per-socket replicas.
	PtreplPolicy = ptrepl.Policy
	// PtreplManager is the installed replication subsystem; query it for
	// per-address-space replica state.
	PtreplManager = ptrepl.Manager
)

// The replication policies.
const (
	// PtreplNone keeps the single master table (stock behaviour).
	PtreplNone = ptrepl.PolicyNone
	// PtreplAll replicates every address space on every socket.
	PtreplAll = ptrepl.PolicyAll
	// PtreplAdaptive replicates on remote-walk pressure and migrates the
	// master toward the dominant writer socket (numaPTE-style).
	PtreplAdaptive = ptrepl.PolicyAdaptive
)

// PtreplModes lists the named (policy, maintenance) modes the experiment
// sweeps: none, replicate-all, adaptive, replicate-all-lazy, adaptive-lazy.
func PtreplModes() []string { return ptrepl.ModeNames() }

// PtreplModeByName resolves a mode name to its config.
func PtreplModeByName(name string) (PtreplConfig, error) { return ptrepl.ModeByName(name) }

// SwapConfig tunes the LRU page swapper (Table 1's page-swap row; §3's
// lazy-swap sketch).
type SwapConfig = swap.Config

// SwapBackend abstracts the swap device; implement it to model a custom
// device, or use NewRemoteBackend for the Infiniswap-style RDMA backend.
type SwapBackend = swap.Backend

// RemoteBackendConfig tunes the remote-memory paging backend (§6.2;
// DESIGN.md §10). Latency constants come from the machine's cost model;
// the config covers the remote node's capacity.
type RemoteBackendConfig = remote.Config

// RemoteBackend is the Infiniswap-style RDMA swap backend.
type RemoteBackend = remote.Backend

// NewRemoteBackend builds a remote-memory swap backend; pass it in
// Config.SwapBackend together with Config.Swap.
var NewRemoteBackend = remote.New

// PercentileHist is a fixed-bucket latency histogram with deterministic
// quantiles (p50/p90/p99/p99.9) and a byte-stable digest.
type PercentileHist = metrics.PercentileHist

// Config assembles a simulated system.
type Config struct {
	// Machine selects the topology (default TwoSocket16).
	Machine MachineSpec
	// Policy selects the coherence mechanism (default PolicyLinux). Besides
	// the PolicyKind constants it accepts the virtualized policies
	// "guest-latr", "host-latr" and "hatric".
	Policy PolicyKind
	// CustomPolicy overrides Policy with a user implementation.
	CustomPolicy Policy
	// Tunables, when non-nil, sets the machine's hand-fixed knobs (zero
	// fields take the paper defaults: 64 LATR states per core, 2 ms
	// reclamation delay, 1 ms ticks). The LATR policy and page-table
	// replication read their knobs from it when they attach; the sweep
	// cadence and full-flush cutoff overlay the cost model, a custom Cost
	// too. NewSystem panics if it fails Tunables.Validate.
	Tunables *Tunables
	// AutoNUMA, when non-nil, installs NUMA balancing with this config.
	AutoNUMA *AutoNUMAConfig
	// Swap, when non-nil, installs the LRU page swapper with this config.
	Swap *SwapConfig
	// Ptrepl, when non-nil, installs per-socket page-table replication
	// with this config (DESIGN.md §15). The zero PtreplConfig is the
	// "none" policy; use PtreplModeByName for the named modes.
	Ptrepl *PtreplConfig
	// SwapBackend overrides the swapper's device model (default: local
	// NVMe-class). Ignored unless Swap is set.
	SwapBackend SwapBackend
	// UsePCID enables PCID-tagged TLBs (§4.5).
	UsePCID bool
	// Tickless disables scheduler ticks on idle cores (§7).
	Tickless bool
	// CheckInvariants enables the shadow-TLB reuse-invariant checker.
	CheckInvariants bool
	// Audit enables kernel-wide audit mode: coherence-invariant breaches
	// are collected as structured violations (System.Audit) instead of
	// panicking. Always on in chaos runs.
	Audit bool
	// TraceLimit keeps a timeline of up to this many lines on the span
	// collector (System.Spans().Render()).
	TraceLimit int
	// SpanLimit retains up to this many closed observability spans for
	// Perfetto export (System.WritePerfetto). Span metrics are always on;
	// only retention is bounded by this.
	SpanLimit int
	// Seed drives all simulation randomness (default 1).
	Seed uint64
	// Cost overrides the calibrated latency model when non-nil.
	Cost *CostModel
}

// System is an assembled machine ready to run workloads.
type System struct {
	k        *kernel.Kernel
	autonuma *numa.AutoNUMA
	swapper  *swap.Swapper
	ptrepl   *ptrepl.Manager
}

// NewSystem builds a system from cfg.
func NewSystem(cfg Config) *System {
	spec := cfg.Machine
	if spec.NumCores() == 0 {
		spec = topo.TwoSocket16()
	}
	pol := cfg.CustomPolicy
	if pol == nil {
		if cfg.Policy == "" {
			cfg.Policy = PolicyLinux
		}
		var err error
		if pol, err = shootdown.ByName(string(cfg.Policy)); err != nil {
			panic("latr: invalid Config.Policy: " + err.Error())
		}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	model := cost.Default(spec)
	if cfg.Cost != nil {
		model = *cfg.Cost
	}
	k := kernel.New(spec, model, pol, kernel.Options{
		UsePCID:         cfg.UsePCID,
		Tickless:        cfg.Tickless,
		CheckInvariants: cfg.CheckInvariants,
		Audit:           cfg.Audit,
		TraceLimit:      cfg.TraceLimit,
		SpanLimit:       cfg.SpanLimit,
		Seed:            seed,
		Tunables:        cfg.Tunables,
	})
	s := &System{k: k}
	if cfg.AutoNUMA != nil {
		s.autonuma = numa.New(*cfg.AutoNUMA)
		s.autonuma.Install(k)
	}
	if cfg.Swap != nil {
		if err := cfg.Swap.Validate(); err != nil {
			panic("latr: invalid Config.Swap: " + err.Error())
		}
		if cfg.SwapBackend != nil {
			s.swapper = swap.NewWithBackend(*cfg.Swap, cfg.SwapBackend)
		} else {
			s.swapper = swap.New(*cfg.Swap)
		}
		s.swapper.Install(k)
	}
	if cfg.Ptrepl != nil {
		m, err := ptrepl.Install(k, *cfg.Ptrepl)
		if err != nil {
			panic("latr: invalid Config.Ptrepl: " + err.Error())
		}
		s.ptrepl = m
	}
	return s
}

// Kernel exposes the underlying simulated OS.
func (s *System) Kernel() *Kernel { return s.k }

// NewProcess creates a process with a fresh address space; if AutoNUMA or
// the swapper is installed the process is registered for scanning.
func (s *System) NewProcess() *Process {
	p := s.k.NewProcess()
	if s.autonuma != nil {
		s.autonuma.Register(p)
	}
	if s.swapper != nil {
		s.swapper.Register(p)
	}
	return p
}

// RegisterAllForNUMA registers every existing process with the installed
// AutoNUMA balancer — useful when a workload's Setup creates processes on
// the kernel directly rather than through System.NewProcess. It is a
// no-op without AutoNUMA; already-registered processes are skipped.
func (s *System) RegisterAllForNUMA() {
	for _, p := range s.k.Processes() {
		if s.autonuma != nil {
			s.autonuma.Register(p)
		}
		if s.swapper != nil {
			s.swapper.Register(p)
		}
	}
}

// Ptrepl returns the installed page-table replication manager (nil unless
// Config.Ptrepl was set).
func (s *System) Ptrepl() *PtreplManager { return s.ptrepl }

// Run advances virtual time to the given deadline.
func (s *System) Run(until Time) { s.k.Run(until) }

// Now returns the current virtual time.
func (s *System) Now() Time { return s.k.Now() }

// Metrics returns the system's metric registry.
func (s *System) Metrics() *Registry { return s.k.Metrics }

// Audit returns the coherence auditor (nil unless Config.Audit was set).
func (s *System) Audit() *Auditor { return s.k.Audit }

// Spans returns the observability span collector: per-policy phase
// histograms, lifecycle counters, (with Config.TraceLimit) the timeline,
// and (with Config.SpanLimit) the retained spans for export.
func (s *System) Spans() *SpanCollector { return s.k.Spans }

// WritePerfetto writes the system's retained spans as Chrome trace-event
// JSON, loadable in ui.perfetto.dev. Config.SpanLimit must be set for any
// spans to be retained.
func (s *System) WritePerfetto(w io.Writer) error {
	return obs.WritePerfetto(w, SpanGroup{
		Label: s.k.Policy().Name(),
		Pid:   1,
		Spans: s.k.Spans.Retained(),
	})
}

// DefaultCost returns the calibrated latency model for a machine.
func DefaultCost(spec MachineSpec) CostModel { return cost.Default(spec) }

// ExperimentTable is a rendered experiment result.
type ExperimentTable = experiments.Table

// ExperimentOptions sizes experiment runs.
type ExperimentOptions = experiments.Options

// Experiments lists every registered experiment id: the paper's tables,
// figures and case studies in paper order, then the ablations and
// extensions.
func Experiments() []string { return experiments.IDs() }

// PaperExperiments lists the identifiers of the paper's own tables,
// figures and case studies, without the ablations and extensions.
func PaperExperiments() []string { return experiments.PaperIDs() }

// RunExperiment runs one registered experiment by its id.
func RunExperiment(id string, o ExperimentOptions) (*ExperimentTable, error) {
	return experiments.ByID(id, o)
}

// PolicyNames lists the bare-metal policies the single-machine modes
// offer; Config.Policy also accepts the virtualized ones.
func PolicyNames() []string { return experiments.PolicyNames() }

// Policy auto-tuning (internal/tune, DESIGN.md §16): a typed parameter
// space over the kernel's validated knob set, a seeded evolutionary search
// with a multi-objective fitness, and a counterfactual span differ that
// re-runs a recorded seed with one knob perturbed.
type (
	// Tunables is the validated home of every hand-fixed LATR knob; the
	// zero value means paper defaults. Pass it as Config.Tunables.
	Tunables = kernel.Tunables
	// TuneParamSpace is the typed search space over Tunables.
	TuneParamSpace = tune.ParamSpace
	// TuneSearchConfig sizes the evolutionary search.
	TuneSearchConfig = tune.SearchConfig
	// TuneResult is a finished search: baseline, history, best genome.
	TuneResult = tune.Result
	// TuneCell is one (workload × topology) fitness cell.
	TuneCell = tune.Cell
	// CounterfactualConfig names one knob perturbation of a recorded seed.
	CounterfactualConfig = tune.CounterfactualConfig
	// CounterfactualDiff is the structured span-level diff of the two runs.
	CounterfactualDiff = tune.Diff
)

// DefaultTunables returns the paper's hand-fixed knob values.
func DefaultTunables() Tunables { return kernel.DefaultTunables() }

// TuneSpace returns the canonical parameter space over Tunables.
func TuneSpace() TuneParamSpace { return tune.Space() }

// RunTuneSearch runs the seeded evolutionary search; the generation
// history is byte-identical at any worker count. A cell naming an
// unknown workload or machine is an error, returned before anything runs.
func RunTuneSearch(cfg TuneSearchConfig) (*TuneResult, error) { return tune.Search(cfg) }

// RunCounterfactual re-runs a recorded seed with one knob perturbed and
// diffs the resulting coherence spans.
func RunCounterfactual(cfg CounterfactualConfig) (*CounterfactualDiff, error) {
	return tune.Counterfactual(cfg)
}

// ExperimentRunSpec identifies one cell of the experiment matrix.
type ExperimentRunSpec = experiments.RunSpec

// ExperimentRunResult is the fingerprinted outcome of one matrix cell.
type ExperimentRunResult = experiments.RunResult

// ExperimentMatrix describes a (policy × workload × seed × topology) sweep.
type ExperimentMatrix = experiments.Matrix

// DefaultExperimentMatrix is the standard full-matrix sweep; quick shrinks
// the simulated duration without changing the shape.
func DefaultExperimentMatrix(quick bool) ExperimentMatrix {
	return experiments.DefaultMatrix(quick)
}

// RunExperimentMatrix fans the specs across a worker pool (workers <= 0:
// GOMAXPROCS) with every run fully isolated; results come back in matrix
// order and are identical for every worker count.
func RunExperimentMatrix(specs []ExperimentRunSpec, workers int, o ExperimentOptions) []ExperimentRunResult {
	return experiments.RunMatrix(specs, workers, o)
}

// RunExperimentSpec executes a single matrix cell in isolation.
func RunExperimentSpec(s ExperimentRunSpec, o ExperimentOptions) ExperimentRunResult {
	return experiments.RunOne(s, o)
}

// Litmus testing: small declarative TLB-coherence scenarios run under
// every policy and checked against a flat reference model plus a
// cross-policy comparator. See internal/litmus and DESIGN.md §9.
type (
	// LitmusScenario is one declarative coherence test.
	LitmusScenario = litmus.Scenario
	// LitmusRunConfig selects policy, topology, chaos profile and seed for
	// one litmus run.
	LitmusRunConfig = litmus.RunConfig
	// LitmusOutcome is the canonical result of one litmus run.
	LitmusOutcome = litmus.Outcome
	// LitmusSuiteConfig shapes a full suite cross.
	LitmusSuiteConfig = litmus.SuiteConfig
	// LitmusSuiteReport aggregates a suite run.
	LitmusSuiteReport = litmus.SuiteReport
)

// LitmusPolicies lists the policies a litmus suite crosses by default.
func LitmusPolicies() []string {
	return append([]string(nil), litmus.DefaultPolicies...)
}

// LitmusScenarios returns the handwritten litmus corpus.
func LitmusScenarios() []*LitmusScenario { return litmus.Scenarios() }

// LitmusScenarioByName finds a handwritten scenario (nil if unknown).
func LitmusScenarioByName(name string) *LitmusScenario { return litmus.ScenarioByName(name) }

// GenerateLitmus builds count deterministic randomized scenarios from
// consecutive seeds starting at seed.
func GenerateLitmus(seed uint64, count int) []*LitmusScenario {
	return litmus.GenerateMany(seed, count)
}

// GenerateVirtLitmus builds count deterministic two-level scenarios from
// consecutive seeds starting at seed: guest threads inside one or two VMs
// with a host thread ballooning or migrating underneath them.
func GenerateVirtLitmus(seed uint64, count int) []*LitmusScenario {
	return litmus.GenerateManyVirt(seed, count)
}

// ParseLitmus parses the compact litmus text format.
func ParseLitmus(text string) (*LitmusScenario, error) { return litmus.Parse(text) }

// LitmusFromBytes derives a race-free scenario from raw bytes (the fuzz
// entry point; same grammar as GenerateLitmus).
func LitmusFromBytes(data []byte) *LitmusScenario { return litmus.FromBytes(data) }

// RunLitmus executes one scenario under one configuration.
func RunLitmus(sc *LitmusScenario, cfg LitmusRunConfig) LitmusOutcome {
	return litmus.RunScenario(sc, cfg)
}

// RunLitmusSuite fans scenarios across the policy × topology × chaos
// cross and aggregates per-run and cross-policy failures.
func RunLitmusSuite(scs []*LitmusScenario, cfg LitmusSuiteConfig) *LitmusSuiteReport {
	return litmus.RunSuite(scs, cfg)
}

// ShrinkLitmus greedily minimizes a scenario while the failing predicate
// keeps holding.
func ShrinkLitmus(sc *LitmusScenario, failing func(*LitmusScenario) bool) *LitmusScenario {
	return litmus.Shrink(sc, failing)
}

// Fig2Timeline renders the Fig 2 munmap timelines (Linux, then LATR).
func Fig2Timeline(o ExperimentOptions) string { return experiments.Fig2Timeline(o) }

// Fig3Timeline renders the Fig 3 AutoNUMA timelines (Linux, then LATR).
func Fig3Timeline(o ExperimentOptions) string { return experiments.Fig3Timeline(o) }

// Fig2Perfetto renders the Fig 2 munmap scenario (Linux and LATR) as
// Chrome trace-event JSON, loadable in ui.perfetto.dev.
func Fig2Perfetto(o ExperimentOptions) (string, error) { return experiments.Fig2Perfetto(o) }

// Fig3Perfetto renders the Fig 3 AutoNUMA scenario (Linux and LATR) as
// Chrome trace-event JSON.
func Fig3Perfetto(o ExperimentOptions) (string, error) { return experiments.Fig3Perfetto(o) }

// Benchmark baseline comparison, re-exported for cmd/latr-bench.
type (
	// BenchJSON is one experiment's archived machine-readable result.
	BenchJSON = experiments.BenchJSON
	// BenchCellDiff is one cell whose text differs from the baseline's.
	BenchCellDiff = experiments.CellDiff
)

// BenchJSONFromTable captures a finished experiment table for archival.
func BenchJSONFromTable(t *ExperimentTable, o ExperimentOptions, wallSec float64) BenchJSON {
	return experiments.BenchJSONFromTable(t, o, wallSec)
}

// LoadBenchJSON reads one BENCH_<id>.json baseline file.
func LoadBenchJSON(path string) (BenchJSON, error) { return experiments.LoadBenchJSON(path) }

// CompareBench diffs a current run against a committed baseline; structural
// mismatches are errors, and every cell whose text differs comes back as a
// diff.
func CompareBench(baseline, current BenchJSON) ([]BenchCellDiff, error) {
	return experiments.CompareBench(baseline, current)
}
