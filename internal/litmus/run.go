package litmus

import (
	"fmt"
	"sort"
	"strings"

	"latr/internal/chaos"
	"latr/internal/cost"
	"latr/internal/kernel"
	"latr/internal/pt"
	"latr/internal/ptrepl"
	"latr/internal/remote"
	"latr/internal/shootdown"
	"latr/internal/sim"
	"latr/internal/swap"
	"latr/internal/topo"
)

// DefaultPolicies is the policy set every litmus scenario runs under: the
// four bare-metal policies plus the three virtualized two-level ones. The
// virt policies differ from their bases only in the host-level coherence
// mode, so running them over single-level scenarios doubles as a regression
// check that the mode declaration alone changes nothing.
var DefaultPolicies = []string{"linux", "latr", "abis", "barrelfish", "guest-latr", "host-latr", "hatric"}

// defaultGuestFrames is the guest-physical memory of a VM whose vmstart op
// does not say otherwise (or that exists from the beginning of the run).
const defaultGuestFrames = 4096

// newPolicy builds a fresh policy by name: a registry name
// (shootdown.ByName), or "mutant:<m>" for a deliberately broken Linux
// variant (shootdown.NewMutant) used by the oracle-sensitivity tests.
func newPolicy(name string) (kernel.Policy, error) {
	if m, ok := strings.CutPrefix(name, "mutant:"); ok {
		return shootdown.NewMutant(shootdown.Mutation(m))
	}
	return shootdown.ByName(name)
}

// RunConfig selects one execution of a scenario.
type RunConfig struct {
	Policy string
	Topo   string // "2x8" or "8x15" (topo.PaperByName)
	Chaos  string // chaos profile name, "" = none
	Seed   uint64
	// ReplMutant names a ptrepl mutation ("skip-one-replica",
	// "leak-replica") injected into scenarios that carry a repl directive —
	// the replica-layer analogue of the mutant:<m> policies, used by the
	// oracle-sensitivity tests.
	ReplMutant string
}

// runDeadline caps a scenario's simulated run; it is generous enough for
// every built-in scenario, so a run still going past it is deadlocked.
const runDeadline = 200 * sim.Millisecond

// Outcome is the observed result of one (scenario, policy, topology, chaos)
// run, plus every oracle failure detected.
type Outcome struct {
	Scenario, Policy, Topo, Chaos string

	// Final is the region-relative canonical final state (see Model.Final).
	Final string
	// Faults holds per-thread observed segv/protection fault totals.
	Faults []int
	// Violations/AuditReport surface coherence-auditor findings.
	Violations  int
	AuditReport string
	Deadlocked  bool
	FramesInUse int64
	LazyPages   int
	Orphans     int
	EngineFP    uint64
	// SwapOuts/SwapIns count eviction and refault traffic (zero unless the
	// scenario carries the swap directive).
	SwapOuts uint64
	SwapIns  uint64
	// VMExits/EPTViolations count two-level overhead events (zero unless
	// the scenario is virtualized). Per-policy by nature — the comparator
	// never crosses them — but part of each run's determinism digest.
	VMExits       uint64
	EPTViolations uint64
	// ReplReplicas/ReplStale are the final ptrepl gauges (must both be
	// zero after teardown and drain); ReplLost counts invalidations the
	// replica layer provably dropped. All zero unless the scenario carries
	// a repl directive.
	ReplReplicas int64
	ReplStale    int64
	ReplLost     uint64

	// Failures lists every oracle check this run failed; empty = pass.
	Failures []string

	// Skipped is set when the topology cannot host the scenario.
	Skipped bool
}

// Key renders the run's identity for reports.
func (o Outcome) Key() string {
	c := o.Chaos
	if c == "" {
		c = "none"
	}
	return fmt.Sprintf("%s/%s/%s/%s", o.Scenario, o.Topo, c, o.Policy)
}

// Digest folds the determinism-relevant parts of the outcome into a string
// fingerprinted by the suite.
func (o Outcome) digest() string {
	return fmt.Sprintf("%s|%s|%v|%d|%d|%d|%d|%v|%016x|%d|%d|%d|%d|%d|%d|%d",
		o.Key(), o.Final, o.Faults, o.Violations, o.FramesInUse, o.LazyPages, o.Orphans, o.Deadlocked, o.EngineFP, o.SwapOuts, o.SwapIns, o.VMExits, o.EPTViolations, o.ReplReplicas, o.ReplStale, o.ReplLost)
}

// regionInfo binds a symbolic region label to its concrete placement in one
// particular run.
type regionInfo struct {
	base  pt.VPN
	pages int
	huge  bool
}

// runner executes one scenario on one kernel, stepping the reference model
// at every op completion.
type runner struct {
	k     *kernel.Kernel
	sc    *Scenario
	model *Model // nil for racy scenarios

	procs   map[string]*kernel.Process        // proc label -> process
	vms     map[string]*kernel.VM             // vm label -> VM (guest proc under the same label in procs)
	regions map[string]map[string]*regionInfo // proc label -> region label -> placement
	// claims tracks which region label most recently bound each VPN. A
	// munmapped region's VA may be reused by a later mmap (immediately under
	// linux, after reclamation under latr), and the stale binding must not
	// attribute the new region's pages to the dead one.
	claims  map[string]map[pt.VPN]string
	pending map[string][]int // proc label -> thread indices awaiting spawn
	spawned []bool
	done    []bool
	faults  []int

	failures []string
}

// procKey returns the label a thread's process is filed under: its VM label
// for vCPU threads (the VM's guest process), its fork label otherwise.
func procKey(t Thread) string {
	if t.VM != "" {
		return t.VM
	}
	return t.Proc
}

// addVM registers a freshly created VM and its guest process under label.
func (r *runner) addVM(label string, v *kernel.VM, p *kernel.Process) {
	r.vms[label] = v
	r.procs[label] = p
	r.regions[label] = map[string]*regionInfo{}
	r.claims[label] = map[pt.VPN]string{}
}

func (r *runner) failf(format string, args ...any) {
	if len(r.failures) < 64 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// waitRetry is the poll interval for ops blocked on a region another thread
// has not created yet. Virtual-time polling is deterministic.
const waitRetry = 20 * sim.Microsecond

// swapMemFrames is each node's frame budget in swap scenarios: small
// enough that an ~900-page working set forces eviction, large enough that
// the hot half survives under the high watermark.
const swapMemFrames = 1024

// allDone reports whether every scenario thread has spawned and finished.
// Swap runs terminate on this rather than LiveThreads: the swapper's
// kernel thread never exits.
func (r *runner) allDone() bool {
	for ti := range r.done {
		if !r.spawned[ti] || !r.done[ti] {
			return false
		}
	}
	return true
}

// program builds the kernel Program interpreting thread ti.
func (r *runner) program(ti int) kernel.Program {
	t := r.sc.Threads[ti]
	i := 0
	var inflight *Op
	return kernel.ProgramFunc(func(_ sim.Time, th *kernel.Thread) kernel.Op {
		if inflight != nil {
			r.finishOp(ti, th, inflight)
			inflight = nil
		}
		for i < len(t.Ops) {
			op := &t.Ops[i]
			kop, ready := r.translate(procKey(t), op)
			if !ready {
				return kernel.Sleep(waitRetry)
			}
			i++
			if op.Kind == OpWait {
				continue // the region exists: nothing for the kernel to do
			}
			inflight = op
			return kop
		}
		r.done[ti] = true
		return kernel.Op{}
	})
}

// translate maps one litmus op to a kernel op; a wait whose region exists
// has no kernel action and maps to the zero Op. ready=false means a region
// or process binding is not available yet; the interpreter retries.
func (r *runner) translate(proc string, op *Op) (kernel.Op, bool) {
	regs := r.regions[proc]
	reg := func() (*regionInfo, bool) {
		ri, ok := regs[op.Region]
		return ri, ok
	}
	switch op.Kind {
	case OpMmap:
		kop := kernel.Mmap(op.Pages, !op.ReadOnly)
		if op.Populate || op.Huge {
			kop = kop.Populate(-1)
		}
		if op.Huge {
			kop = kop.Huge()
		}
		return kop, true
	case OpMunmap:
		ri, ok := reg()
		if !ok {
			return kernel.Op{}, false
		}
		off, n := op.Off, op.Pages
		if n == 0 {
			off, n = 0, ri.pages
		}
		kop := kernel.Munmap(ri.base+pt.VPN(off), n)
		if op.Sync {
			kop = kop.ForceSync()
		}
		return kop, true
	case OpMadvise:
		ri, ok := reg()
		if !ok {
			return kernel.Op{}, false
		}
		return kernel.Madvise(ri.base+pt.VPN(op.Off), op.Pages), true
	case OpMprotect:
		ri, ok := reg()
		if !ok {
			return kernel.Op{}, false
		}
		return kernel.Mprotect(ri.base+pt.VPN(op.Off), op.Pages, op.Write), true
	case OpMremap:
		ri, ok := reg()
		if !ok {
			return kernel.Op{}, false
		}
		return kernel.Mremap(ri.base, ri.pages), true
	case OpTouch:
		ri, ok := reg()
		if !ok {
			return kernel.Op{}, false
		}
		return kernel.TouchRange(ri.base+pt.VPN(op.Off), op.Pages, op.Write), true
	case OpCompute:
		return kernel.Compute(op.Dur), true
	case OpSleep:
		return kernel.Sleep(op.Dur), true
	case OpYield:
		return kernel.Yield(), true
	case OpFork:
		return kernel.Fork(), true
	case OpWait:
		_, ok := reg()
		return kernel.Op{}, ok
	case OpExit:
		k := r.k
		return kernel.Call(func(c *kernel.Core, th *kernel.Thread, done func()) {
			k.ReleaseAddressSpace(c, th, th.Proc, done)
		}), true
	case OpVMStart:
		k := r.k
		label, frames := op.VM, op.Pages
		return kernel.Call(func(c *kernel.Core, th *kernel.Thread, done func()) {
			if frames <= 0 {
				frames = defaultGuestFrames
			}
			v := k.NewVM(label, frames)
			r.addVM(label, v, k.NewGuestProcess(v))
			c.Busy(k.Cost.SyscallEntry, false, done)
		}), true
	case OpBalloon:
		v, ok := r.vms[op.VM]
		if !ok {
			return kernel.Op{}, false // vmstart has not completed yet
		}
		k, n := r.k, op.Pages
		return kernel.Call(func(c *kernel.Core, th *kernel.Thread, done func()) {
			k.BalloonReclaim(c, v, n, done)
		}), true
	case OpVMMigrate:
		v, ok := r.vms[op.VM]
		if !ok {
			return kernel.Op{}, false
		}
		k := r.k
		return kernel.Call(func(c *kernel.Core, th *kernel.Thread, done func()) {
			k.MigrateVM(c, v, done)
		}), true
	case OpVMDestroy:
		v, ok := r.vms[op.VM]
		if !ok {
			return kernel.Op{}, false
		}
		k := r.k
		return kernel.Call(func(c *kernel.Core, th *kernel.Thread, done func()) {
			if err := k.DestroyVM(c, v, done); err != nil {
				// Destroying too early (live guest threads) is a scenario
				// sequencing bug; the model predicts success, so the error
				// surfaces as an oracle failure.
				th.LastErr = err
				c.Busy(k.Cost.SyscallEntry, false, done)
			}
		}), true
	}
	panic(fmt.Sprintf("litmus: no kernel op for kind %v", op.Kind)) // Validate rejects unknown kinds
}

// finishOp post-processes a completed op: bind fresh regions, register fork
// children, spawn their pending threads, accumulate faults, and step the
// reference model, cross-checking its fault/error prediction.
func (r *runner) finishOp(ti int, th *kernel.Thread, op *Op) {
	t := r.sc.Threads[ti]
	key := procKey(t)
	switch op.Kind {
	case OpMmap:
		if th.LastErr == nil {
			r.regions[key][op.Region] = &regionInfo{base: th.LastAddr, pages: op.Pages, huge: op.Huge}
			r.claim(key, op.Region, th.LastAddr, op.Pages)
		}
	case OpMremap:
		if th.LastErr == nil {
			if ri, ok := r.regions[key][op.Region]; ok {
				for i := 0; i < ri.pages; i++ {
					if vpn := ri.base + pt.VPN(i); r.claims[key][vpn] == op.Region {
						delete(r.claims[key], vpn)
					}
				}
				ri.base = th.LastAddr
				r.claim(key, op.Region, ri.base, ri.pages)
			}
		}
	case OpFork:
		if th.LastErr == nil && th.LastProc != nil {
			r.procs[op.Proc] = th.LastProc
			// The child inherits the parent's region placements (fork
			// mirrors VAs).
			inherited := map[string]*regionInfo{}
			for label, ri := range r.regions[key] {
				cp := *ri
				inherited[label] = &cp
			}
			r.regions[op.Proc] = inherited
			owned := map[pt.VPN]string{}
			for vpn, label := range r.claims[key] {
				owned[vpn] = label
			}
			r.claims[op.Proc] = owned
			for _, wi := range r.pending[op.Proc] {
				r.spawn(wi)
			}
			r.pending[op.Proc] = nil
		}
	case OpVMStart:
		if th.LastErr == nil {
			// The VM exists: its vCPU threads may start executing.
			for _, wi := range r.pending[op.VM] {
				r.spawn(wi)
			}
			r.pending[op.VM] = nil
		}
	case OpTouch:
		r.faults[ti] += th.LastFault
	}
	if r.model != nil {
		predFaults, predFail := r.model.Apply(key, *op)
		if op.Kind == OpTouch && th.LastFault != predFaults {
			r.failf("%s thread %d op %q: observed %d faults, model predicts %d",
				r.sc.Name, ti, op.String(), th.LastFault, predFaults)
		}
		if gotFail := th.LastErr != nil; gotFail != predFail {
			r.failf("%s thread %d op %q: error=%v, model predicts fail=%v",
				r.sc.Name, ti, op.String(), th.LastErr, predFail)
		}
	} else if th.LastErr != nil && op.Kind != OpMunmap && op.Kind != OpMremap {
		// Racy scenarios tolerate ErrNoVMA-style losers of munmap/mremap
		// races, but allocation failures etc. still count.
		r.failf("%s thread %d op %q: unexpected error %v", r.sc.Name, ti, op.String(), th.LastErr)
	}
}

// claim records region as the latest owner of [base, base+pages).
func (r *runner) claim(proc, region string, base pt.VPN, pages int) {
	owned := r.claims[proc]
	if owned == nil {
		owned = map[pt.VPN]string{}
		r.claims[proc] = owned
	}
	for i := 0; i < pages; i++ {
		owned[base+pt.VPN(i)] = region
	}
}

// owns reports whether region is still the latest binding of vpn.
func (r *runner) owns(proc, region string, vpn pt.VPN) bool {
	return r.claims[proc][vpn] == region
}

// spawn starts thread wi on its core — a host thread in its process, a vCPU
// thread in its VM's guest process (vCPUs are pinned to physical cores).
func (r *runner) spawn(wi int) {
	t := r.sc.Threads[wi]
	p := r.procs[procKey(t)]
	r.spawned[wi] = true
	p.Spawn(topo.CoreID(t.Core), r.program(wi))
}

// RunScenario executes sc once under cfg and applies every per-run oracle
// check. The returned Outcome carries the canonical final state for the
// cross-policy comparator.
func RunScenario(sc *Scenario, cfg RunConfig) Outcome {
	out := Outcome{Scenario: sc.Name, Policy: cfg.Policy, Topo: cfg.Topo, Chaos: cfg.Chaos}
	spec, err := topo.PaperByName(cfg.Topo)
	if err != nil {
		out.Failures = append(out.Failures, err.Error())
		return out
	}
	if sc.MinCores() > spec.NumCores() {
		out.Skipped = true
		return out
	}
	if err := sc.Validate(); err != nil {
		out.Failures = append(out.Failures, err.Error())
		return out
	}

	var prof chaos.Profile
	if cfg.Chaos != "" {
		if prof, err = chaos.ProfileByName(cfg.Chaos); err != nil {
			out.Failures = append(out.Failures, err.Error())
			return out
		}
	}
	pol, err := newPolicy(cfg.Policy)
	if err != nil {
		out.Failures = append(out.Failures, err.Error())
		return out
	}
	if sc.Swap {
		spec.MemPerNodeBytes = swapMemFrames * 4096
	}
	k := kernel.New(spec, cost.Default(spec), pol, kernel.Options{
		Seed:     cfg.Seed ^ 0x11d7c0de,
		Audit:    true,
		Tunables: prof.Tunables(),
	})
	if cfg.Chaos != "" {
		chaos.NewInjector(cfg.Seed^0xc4a05, prof).Install(k)
	}
	if sc.Repl != "" {
		rcfg, err := ptrepl.ModeByName(sc.Repl)
		if err != nil {
			out.Failures = append(out.Failures, err.Error())
			return out
		}
		rcfg.Mutation = ptrepl.Mutation(cfg.ReplMutant)
		if _, err := ptrepl.Install(k, rcfg); err != nil {
			out.Failures = append(out.Failures, err.Error())
			return out
		}
	}
	var sw *swap.Swapper
	if sc.Swap {
		sw = swap.NewWithBackend(swap.Config{
			LowWatermarkFrames:  300,
			HighWatermarkFrames: 500,
			ScanPeriod:          sim.Millisecond,
			BatchPages:          256,
		}, remote.New(remote.Config{}))
		sw.Install(k)
	}

	r := &runner{
		k:       k,
		sc:      sc,
		procs:   map[string]*kernel.Process{"": k.NewProcess()},
		vms:     map[string]*kernel.VM{},
		regions: map[string]map[string]*regionInfo{"": {}},
		claims:  map[string]map[pt.VPN]string{"": {}},
		pending: map[string][]int{},
		spawned: make([]bool, len(sc.Threads)),
		done:    make([]bool, len(sc.Threads)),
		faults:  make([]int, len(sc.Threads)),
	}
	// VMs no vmstart op creates exist from the beginning of the run, in
	// sorted label order so VPID assignment is deterministic.
	started := sc.startedVMs()
	for _, vl := range sc.VMLabels() {
		if !started[vl] {
			v := k.NewVM(vl, defaultGuestFrames)
			r.addVM(vl, v, k.NewGuestProcess(v))
		}
	}
	// The exact oracle (reference model + fault-count predictions) applies
	// only to deterministic-phase runs: chaos injection legitimately
	// stretches the window in which lazy policies serve stale (still-safe)
	// translations, so fault counts and op interleavings become
	// schedule-dependent. Chaos runs — like racy and swap scenarios — are
	// checked against the safety properties alone.
	if !sc.Racy && !sc.Swap && cfg.Chaos == "" {
		r.model = NewModel()
	}
	if sw != nil {
		sw.Register(r.procs[""])
	}
	for ti, t := range sc.Threads {
		if _, ok := r.procs[procKey(t)]; ok {
			r.spawn(ti)
		} else {
			r.pending[procKey(t)] = append(r.pending[procKey(t)], ti)
		}
	}

	// Execute until every thread exits (or the deadline declares deadlock),
	// then drain: lazy policies need reclaim delays and sweep ticks to pass
	// before the architectural state converges. Swap runs terminate on the
	// scenario threads alone — the swapper's kernel thread never exits, so
	// LiveThreads never reaches zero.
	running := func() bool {
		if sc.Swap {
			return !r.allDone()
		}
		return k.LiveThreads() > 0
	}
	step := 2 * sim.Millisecond
	for k.Now() < runDeadline && running() {
		k.Run(k.Now() + step)
	}
	if running() {
		out.Deadlocked = true
	}
	drain := 15 * sim.Millisecond
	if sc.Swap {
		// In-flight RDMA writes and post-eviction lazy reclamation need
		// extra sweep epochs before the state converges.
		drain = 30 * sim.Millisecond
	}
	if cfg.Chaos != "" {
		drain = 60 * sim.Millisecond
	}
	k.Run(k.Now() + drain)

	// Collect. Virtualized runs first audit gVA→gPA→hPA consistency across
	// both levels for every live VM (destroyed VMs were audited at destroy
	// time), and report frames with each VM's EPT backings replaced by its
	// live guest frames — the flat model's view of a two-level system.
	if sc.Virtualized() {
		k.AuditVirt()
	}
	out.Faults = r.faults
	out.EngineFP = k.Engine.Fingerprint()
	out.SwapOuts = k.Metrics.Counter("swap.out")
	out.SwapIns = k.Metrics.Counter("swap.in")
	out.VMExits = k.Metrics.Counter("virt.vm_exits")
	out.EPTViolations = k.Metrics.Counter("virt.ept_violations")
	out.ReplReplicas = k.Metrics.Gauge("ptrepl.replicas")
	out.ReplStale = k.Metrics.Gauge("ptrepl.stale")
	out.ReplLost = k.Metrics.Counter("ptrepl.stale_leaked")
	if sc.Virtualized() {
		out.FramesInUse = int64(k.AdjustedFramesInUse())
	} else {
		out.FramesInUse = k.Alloc.TotalInUse()
	}
	if k.Audit != nil {
		out.Violations = int(k.Audit.Total())
		if out.Violations > 0 {
			out.AuditReport = k.Audit.Render()
		}
	}
	out.Final = r.kernelFinal()
	for _, p := range r.procs {
		snap := k.SnapshotMM(p.MM)
		out.LazyPages += snap.LazyPages
		out.Orphans += snap.Orphans
	}
	out.Failures = append(out.Failures, r.failures...)

	// Per-run oracle checks.
	for ti := range sc.Threads {
		if !r.spawned[ti] {
			out.Failures = append(out.Failures, fmt.Sprintf("thread %d never spawned (fork %q missing?)", ti, sc.Threads[ti].Proc))
		} else if !r.done[ti] {
			out.Failures = append(out.Failures, fmt.Sprintf("thread %d did not finish (deadlock)", ti))
		}
	}
	if out.Violations > 0 {
		out.Failures = append(out.Failures, fmt.Sprintf("%d coherence violation(s):\n%s", out.Violations, out.AuditReport))
	}
	if out.Orphans > 0 {
		out.Failures = append(out.Failures, fmt.Sprintf("%d orphan mapping(s) outside every VMA", out.Orphans))
	}
	if out.LazyPages > 0 {
		out.Failures = append(out.Failures, fmt.Sprintf("%d lazy VA page(s) never reclaimed after drain", out.LazyPages))
	}
	if out.ReplReplicas != 0 {
		out.Failures = append(out.Failures, fmt.Sprintf("%d page-table replica(s) survived address-space teardown", out.ReplReplicas))
	}
	if out.ReplStale != 0 {
		out.Failures = append(out.Failures, fmt.Sprintf("%d parked replica invalidation(s) never applied after drain", out.ReplStale))
	}
	if out.ReplLost != 0 {
		out.Failures = append(out.Failures, fmt.Sprintf("%d replica invalidation(s) lost (stale PTEs held at teardown)", out.ReplLost))
	}
	if r.model != nil {
		if want := r.model.Final(); out.Final != want {
			out.Failures = append(out.Failures, fmt.Sprintf("final state diverges from reference model:\n  kernel: %s\n  model:  %s", out.Final, want))
		}
		if want := r.model.FramesInUse(); out.FramesInUse != want {
			out.Failures = append(out.Failures, fmt.Sprintf("frames in use %d, model says %d (leak or early free)", out.FramesInUse, want))
		}
	}
	r.checkExpects(&out)
	return out
}

// kernelFinal renders the kernel's final architectural state in the same
// region-relative form as Model.Final, and appends a marker for any present
// pages not attributable to a known region (which the model never has).
func (r *runner) kernelFinal() string {
	var procLabels []string
	for p := range r.procs {
		procLabels = append(procLabels, p)
	}
	sort.Strings(procLabels)
	var b strings.Builder
	for _, pl := range procLabels {
		p := r.procs[pl]
		snap := r.k.SnapshotMM(p.MM)
		present := map[pt.VPN]kernel.PresentPage{}
		for _, pg := range snap.Pages {
			present[pg.VPN] = pg
		}
		var regLabels []string
		for l := range r.regions[pl] {
			regLabels = append(regLabels, l)
		}
		sort.Strings(regLabels)
		attributed := 0
		for _, l := range regLabels {
			ri := r.regions[pl][l]
			fmt.Fprintf(&b, "%s/%s=", pl, l)
			for i := 0; i < ri.pages; i++ {
				vpn := ri.base + pt.VPN(i)
				if !r.owns(pl, l, vpn) {
					// The VA was reused by a newer region: this one is dead
					// here, exactly as the model's absent/no-VMA state.
					b.WriteByte('.')
					continue
				}
				if pg, ok := present[vpn]; ok {
					attributed++
					if pg.Writable {
						b.WriteByte('w')
					} else {
						b.WriteByte('r')
					}
					continue
				}
				if _, ok := p.MM.Space.Find(vpn); ok {
					b.WriteByte('o')
				} else {
					b.WriteByte('.')
				}
			}
			b.WriteByte(';')
		}
		if extra := len(snap.Pages) - attributed; extra > 0 {
			fmt.Fprintf(&b, "%s/!unattributed=%d;", pl, extra)
		}
	}
	return b.String()
}

// checkExpects applies the scenario's declarative post-conditions.
func (r *runner) checkExpects(out *Outcome) {
	for _, e := range r.sc.Expects {
		switch e.Kind {
		case ExpectMapped:
			got := r.mappedPages(e.Proc, e.Region)
			if got != e.N {
				out.Failures = append(out.Failures, fmt.Sprintf("expect mapped %s:%s %d, got %d", e.Proc, e.Region, e.N, got))
			}
		case ExpectFaults:
			if r.model == nil {
				// Racy or chaos run: fault totals are schedule-dependent.
				continue
			}
			total := 0
			for _, f := range r.faults {
				total += f
			}
			if total != e.N {
				out.Failures = append(out.Failures, fmt.Sprintf("expect faults %d, got %d", e.N, total))
			}
		}
	}
}

// mappedPages counts present pages of one region in the kernel.
func (r *runner) mappedPages(proc, region string) int {
	p, ok := r.procs[proc]
	if !ok {
		return 0
	}
	ri, ok := r.regions[proc][region]
	if !ok {
		return 0
	}
	n := 0
	for i := 0; i < ri.pages; i++ {
		vpn := ri.base + pt.VPN(i)
		if !r.owns(proc, region, vpn) {
			continue
		}
		if _, ok := p.MM.PT.GetHuge(vpn); ok {
			n++
			continue
		}
		if e, ok := p.MM.PT.Get(vpn); ok && e.Present {
			n++
		}
	}
	return n
}

// ComparePolicies is the cross-policy differential comparator: every
// non-skipped outcome of the same (scenario, topology, chaos) cell must
// agree on the converged architectural state — region shapes, per-thread
// fault counts, and live frame count. Racy and swap scenarios are exempt
// (their interleavings and eviction schedules legitimately differ); their
// per-run safety checks already ran. Returns human-readable mismatch
// reports.
func ComparePolicies(sc *Scenario, outs []Outcome) []string {
	if sc.Racy || sc.Swap || (len(outs) > 0 && outs[0].Chaos != "") {
		// Racy interleavings, swap pressure, and chaos schedules
		// legitimately differ per policy; their per-run safety checks
		// already ran.
		return nil
	}
	var ref *Outcome
	var diffs []string
	for i := range outs {
		o := &outs[i]
		if o.Skipped {
			continue
		}
		if ref == nil {
			ref = o
			continue
		}
		if o.Final != ref.Final {
			diffs = append(diffs, fmt.Sprintf("%s: final state diverges from %s:\n  %s: %s\n  %s: %s",
				o.Key(), ref.Policy, ref.Policy, ref.Final, o.Policy, o.Final))
		}
		if fmt.Sprint(o.Faults) != fmt.Sprint(ref.Faults) {
			diffs = append(diffs, fmt.Sprintf("%s: per-thread faults %v differ from %s's %v",
				o.Key(), o.Faults, ref.Policy, ref.Faults))
		}
		if o.FramesInUse != ref.FramesInUse {
			diffs = append(diffs, fmt.Sprintf("%s: %d frames in use, %s has %d",
				o.Key(), o.FramesInUse, ref.Policy, ref.FramesInUse))
		}
	}
	return diffs
}
