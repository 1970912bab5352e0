// Package kernel is the simulated operating system: cores with TLBs,
// per-core run queues with 1 ms scheduler ticks, IPI delivery with
// interrupt-off windows, an mmap/munmap/madvise/mprotect syscall layer,
// page-fault handling, and mm_struct/mmap_sem semantics.
//
// TLB-coherence mechanisms are pluggable through the Policy interface;
// the Linux/ABIS/Barrelfish baselines live in internal/shootdown and the
// paper's contribution in internal/core.
package kernel

import (
	"fmt"

	"latr/internal/cost"
	"latr/internal/mem"
	"latr/internal/metrics"
	"latr/internal/obs"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/tlb"
	"latr/internal/topo"
	"latr/internal/vm"
)

// Options tune kernel behaviour.
type Options struct {
	// UsePCID preserves TLB entries across context switches under PCID
	// tags (§4.5). Off by default, as Linux 4.10 elects.
	UsePCID bool
	// Tickless disables scheduler ticks on idle cores (§7).
	Tickless bool
	// CheckInvariants enables the shadow TLB tracker and asserts the
	// never-reuse-while-mapped invariant on every frame allocation.
	CheckInvariants bool
	// Audit enables the coherence auditor: the shadow tracker is turned on
	// (implying CheckInvariants) and invariant breaches are recorded as
	// structured violations on Kernel.Audit instead of panicking, so a
	// chaos run completes and reports every breach with provenance.
	Audit bool
	// TraceLimit bounds the lines of the span collector's timeline (0
	// keeps no timeline).
	TraceLimit int
	// SpanLimit bounds closed lifecycle spans retained for Perfetto export
	// (0 retains none; span metrics are always on).
	SpanLimit int
	// Seed feeds all kernel-side randomness.
	Seed uint64
	// Tunables, when non-nil, sets the machine's knobs: zero fields take
	// the paper defaults, the sweep cadence and full-flush cutoff overlay
	// the cost model, and the result is stored as Kernel.Tunables, where
	// the LATR policy and ptrepl read their knobs when they attach. New
	// panics if the struct fails Validate — a tunables bug is a
	// programming error, like an invalid topology. Nil stores
	// DefaultTunables and leaves the cost model untouched, so a custom
	// cost model keeps its tick.
	Tunables *Tunables
	// Engine, when non-nil, is the event engine the kernel schedules on
	// instead of a private one. The cluster layer uses this to run N
	// simulated machines on one shared clock: every kernel's events
	// interleave deterministically on the same queue. All kernels sharing
	// an engine must be built before any of them runs.
	Engine *sim.Engine
}

// Kernel assembles the whole machine.
type Kernel struct {
	Spec    topo.Spec
	Cost    cost.Model
	Engine  *sim.Engine
	Cores   []*Core
	Alloc   *mem.Allocator
	Tracker *tlb.Tracker
	Audit   *tlb.Auditor
	Metrics *metrics.Registry
	Spans   *obs.Collector
	Rand    *sim.Rand
	Opts    Options
	// Tunables is the defaulted, validated knob set of this machine
	// (Options.Tunables, or DefaultTunables when that is nil).
	Tunables Tunables

	policy Policy
	met    kernelMetrics

	procs    []*Process
	nextPID  int
	nextTID  int
	nextPCID tlb.PCID

	// Virtualization state (see virt.go). virtUsed gates the VPID-scoped
	// context-switch flush so bare-metal runs keep the exact legacy
	// full-flush behaviour.
	vms       []*VM
	nextVMID  int
	nextVPID  tlb.VPID
	freeVPIDs []tlb.VPID
	virtUsed  bool

	numa     NUMAHandler
	swap     SwapHandler
	injector FaultInjector
	repl     ReplHandler

	liveThreads int

	// frameLists is the free list of unmap frame lists: ReleaseFrames
	// takes lists back and munmapGrant reuses them (see frameList).
	frameLists [][]FrameRef
}

// New builds a kernel for the given machine with the given coherence
// policy. A policy that implements Attacher is attached here, after the
// cores exist and before their first tick is scheduled, so callers never
// call Attach themselves. New panics on an invalid spec or
// Options.Tunables.
func New(spec topo.Spec, model cost.Model, pol Policy, opts Options) *Kernel {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	tun := DefaultTunables()
	if opts.Tunables != nil {
		if err := opts.Tunables.Validate(); err != nil {
			panic(err)
		}
		tun = opts.Tunables.WithDefaults()
		tun.ApplyCost(&model)
	}
	eng := opts.Engine
	if eng == nil {
		eng = sim.NewEngine()
	}
	reg := metrics.NewRegistry()
	k := &Kernel{
		Spec:     spec,
		Cost:     model,
		Engine:   eng,
		Alloc:    mem.NewAllocator(spec),
		Metrics:  reg,
		Rand:     sim.NewRand(opts.Seed ^ 0x1a7b2c3d4e5f6071),
		Opts:     opts,
		Tunables: tun,
		policy:   pol,
		met:      newKernelMetrics(reg),
		nextPCID: 1,
	}
	if opts.CheckInvariants || opts.Audit {
		k.Tracker = tlb.NewTracker()
	}
	if opts.Audit {
		k.Audit = tlb.NewAuditor(4096)
	}
	k.Spans = obs.NewCollector(pol.Name(), k.Metrics, opts.TraceLimit, opts.SpanLimit)
	for i := 0; i < spec.NumCores(); i++ {
		k.Cores = append(k.Cores, newCore(k, topo.CoreID(i)))
	}
	if a, ok := pol.(Attacher); ok {
		a.Attach(k)
	}
	for _, c := range k.Cores {
		c.startTicks()
	}
	return k
}

// Policy returns the installed coherence policy.
func (k *Kernel) Policy() Policy { return k.policy }

// Now returns the current virtual time.
func (k *Kernel) Now() sim.Time { return k.Engine.Now() }

// Run advances the simulation until deadline.
func (k *Kernel) Run(deadline sim.Time) { k.Engine.RunUntil(deadline) }

// MM is the simulated mm_struct: one address space shared by the threads
// of a process.
type MM struct {
	ID    int
	PCID  tlb.PCID
	PT    *pt.PageTable
	Space *vm.Space
	Sem   *RWSem

	// VM is non-nil for guest address spaces: the process runs inside that
	// virtual machine, its page table maps guest-virtual to guest-physical
	// frames, and every frame reference must be translated through the
	// VM's EPT before touching host memory.
	VM *VM

	// CPUMask tracks cores currently running (or lazily holding) this mm —
	// the shootdown target set (§4.1 "State update").
	CPUMask topo.CoreMask

	// Threads currently alive in this mm.
	threads int
}

// Process is a schedulable entity owning an MM.
type Process struct {
	PID int
	MM  *MM
	k   *Kernel
}

// NewProcess creates a process with a fresh address space.
func (k *Kernel) NewProcess() *Process {
	k.nextPID++
	mm := &MM{
		ID:    k.nextPID,
		PT:    pt.New(),
		Space: vm.NewSpace(),
		Sem:   NewRWSem(k),
	}
	if k.Opts.UsePCID {
		mm.PCID = k.nextPCID
		k.nextPCID++
	}
	p := &Process{PID: k.nextPID, MM: mm, k: k}
	k.procs = append(k.procs, p)
	return p
}

// ThreadState is a thread's scheduler state.
type ThreadState uint8

// Thread states.
const (
	Ready ThreadState = iota
	Running
	Blocked
	Done
)

// Thread is one schedulable execution context, pinned to a core.
type Thread struct {
	TID     int
	Proc    *Process
	Core    topo.CoreID
	State   ThreadState
	Program Program

	// Kernel reports the last syscall/touch outcome here for the program.
	LastErr   error
	LastAddr  pt.VPN
	LastFault int      // pages that segfaulted in the last touch op
	LastProc  *Process // child created by the last Fork op

	// resume continues an in-flight operation after a block; nil when the
	// thread is at an op boundary.
	resume func()
	// op holds the in-flight op's operands for the kernel continuations.
	// It is allocated on the thread's first op rather than held inline:
	// set-up spawns many threads, and inline it would more than double
	// each one's size.
	op *opState

	// Bookkeeping for preemption.
	scheduledAt sim.Time
	cpuTime     sim.Time

	kernelThread bool
}

// Spawn creates a thread of p pinned to core, running prog, and makes it
// runnable immediately.
func (p *Process) Spawn(core topo.CoreID, prog Program) *Thread {
	return p.spawn(core, prog, false)
}

// SpawnKernel creates a kernel thread (exempt from mm accounting).
func (p *Process) SpawnKernel(core topo.CoreID, prog Program) *Thread {
	return p.spawn(core, prog, true)
}

func (p *Process) spawn(core topo.CoreID, prog Program, kernel bool) *Thread {
	k := p.k
	if int(core) < 0 || int(core) >= len(k.Cores) {
		panic(fmt.Sprintf("kernel: spawn on nonexistent core %d", core))
	}
	k.nextTID++
	th := &Thread{
		TID:          k.nextTID,
		Proc:         p,
		Core:         core,
		State:        Ready,
		Program:      prog,
		kernelThread: kernel,
	}
	p.MM.threads++
	k.liveThreads++
	c := k.Cores[core]
	c.enqueue(th)
	return th
}

// LiveThreads reports threads not yet exited.
func (k *Kernel) LiveThreads() int { return k.liveThreads }

// Program generates a thread's operations. Next is called at each op
// boundary; returning the zero Op exits the thread.
type Program interface {
	Next(now sim.Time, th *Thread) Op
}

// ProgramFunc adapts a function to Program.
type ProgramFunc func(now sim.Time, th *Thread) Op

// Next implements Program.
func (f ProgramFunc) Next(now sim.Time, th *Thread) Op { return f(now, th) }

// Script builds a Program that runs a fixed sequence of op-producing
// steps, then exits. Each step sees the thread (and thus the previous
// op's results in the Last* fields).
func Script(steps ...func(th *Thread) Op) Program {
	i := 0
	return ProgramFunc(func(_ sim.Time, th *Thread) Op {
		if i >= len(steps) {
			return Op{}
		}
		op := steps[i](th)
		i++
		return op
	})
}

// Loop builds a Program that calls body repeatedly until it returns the
// zero Op.
func Loop(body func(th *Thread) Op) Program {
	return ProgramFunc(func(_ sim.Time, th *Thread) Op { return body(th) })
}

// threadExited tears down accounting after a program returns the zero Op.
// When the last thread of an address space exits, the policy gets an
// OnMMExit hook so per-MM bookkeeping (ABIS sharer maps) is dropped instead
// of leaking across fork/exit churn.
func (k *Kernel) threadExited(c *Core, th *Thread) {
	th.State = Done
	mm := th.Proc.MM
	mm.threads--
	k.liveThreads--
	if mm.threads == 0 {
		k.policy.OnMMExit(mm)
		if k.repl != nil {
			k.repl.OnMMExit(mm)
		}
	}
}

// allocHugeFrame allocates 512 contiguous frames, checking the reuse
// invariant on each when the shadow tracker is on.
func (k *Kernel) allocHugeFrame(node topo.NodeID) (mem.PFN, error) {
	base, err := k.Alloc.AllocContig(node, pt.HugePages)
	if err != nil {
		return 0, err
	}
	if k.Tracker != nil {
		for i := 0; i < pt.HugePages; i++ {
			k.checkFrameReuse(base + mem.PFN(i))
		}
	}
	return base, nil
}

// allocFrame allocates a frame on node, enforcing the reuse invariant when
// the shadow tracker is on.
func (k *Kernel) allocFrame(node topo.NodeID) (mem.PFN, error) {
	pfn, err := k.Alloc.Alloc(node)
	if err != nil {
		return 0, err
	}
	if k.Tracker != nil {
		k.checkFrameReuse(pfn)
	}
	return pfn, nil
}

// checkFrameReuse enforces the never-reuse-while-mapped invariant on one
// freshly allocated frame. The tracker's line count decides; the TLBs are
// read only to name the culprits. Under the auditor the breach is recorded
// as a structured violation per still-caching core, at the VPN of that
// core's first entry in (VPID, PCID, VPN) order, so the report names
// every culprit; without it the simulation stops hard, as before.
func (k *Kernel) checkFrameReuse(pfn mem.PFN) {
	if k.Tracker.Lines(pfn) == 0 {
		return
	}
	var firsts []tlb.CachedEntry // each caching core's first entry
	var cores []topo.CoreID
	for _, e := range k.Tracker.Culprits(pfn, k.tlbs()) {
		if len(cores) == 0 || cores[len(cores)-1] != e.Core {
			firsts = append(firsts, e)
			cores = append(cores, e.Core)
		}
	}
	if k.Audit == nil {
		panic(fmt.Sprintf("kernel: TLB-coherence invariant violated: frame %d reused while still cached on cores %v", pfn, cores))
	}
	k.met.auditFrameReuse.Inc()
	for _, e := range firsts {
		k.Audit.Report(tlb.Violation{
			Kind:   tlb.ViolationFrameReuse,
			Time:   k.Now(),
			Core:   e.Core,
			VPN:    e.Key.VPN,
			PFN:    pfn,
			Detail: fmt.Sprintf("frame reallocated while cached on %d core(s)", len(cores)),
		})
	}
	k.Spans.Note(k.Now(), cores[0], "audit", "frame %d reused while cached on %v", uint64(pfn), cores)
}

// tlbs returns every core's TLB, in core order.
func (k *Kernel) tlbs() []*tlb.TLB {
	out := make([]*tlb.TLB, len(k.Cores))
	for i, c := range k.Cores {
		out[i] = c.TLB
	}
	return out
}

// Processes returns every process created so far (including kernel-thread
// hosts), in creation order.
func (k *Kernel) Processes() []*Process {
	out := make([]*Process, len(k.procs))
	copy(out, k.procs)
	return out
}

// AllocFrame allocates a frame on node with the reuse-invariant check,
// exported for kernel extensions (page migration).
func (k *Kernel) AllocFrame(node topo.NodeID) (mem.PFN, error) { return k.allocFrame(node) }

// Wake makes a blocked thread runnable (exported for kernel extensions
// such as the AutoNUMA fault gate).
func (k *Kernel) Wake(th *Thread) { k.wake(th) }
