// Package core implements LATR — lazy TLB coherence (§3–§4).
//
// Instead of IPIs, the unmap path records a per-core LATR state (address
// range, mm, CPU bitmask, flags, active bit). Every core sweeps all cores'
// states at its scheduler ticks and context switches, invalidates its own
// TLB for relevant entries, and clears its bitmask bit; the last core
// deactivates the state. Freed virtual and physical pages sit on lazy
// lists until a background reclaim pass frees them two tick periods later,
// upholding the invariant that memory is reused only after every TLB entry
// for it is gone.
package core

import (
	"fmt"

	"latr/internal/kernel"
	"latr/internal/metrics"
	"latr/internal/obs"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/tlb"
	"latr/internal/topo"
)

// Config selects LATR's sweep trigger points; the zero value is the
// paper's design. The mechanism's knobs (queue depth, fallback occupancy,
// reclaim delay and period) are not configured here: Attach copies them
// from the kernel's Tunables.
type Config struct {
	// DisableTickSweep and DisableContextSwitchSweep turn off the sweep
	// trigger points (both on in the paper; ablation knobs here).
	DisableTickSweep          bool
	DisableContextSwitchSweep bool
}

const (
	// gateTimeout bounds how long a migration-gated fault (§4.4) may wait
	// for its state to clear. Past the timeout the state is force-swept on
	// behalf of the laggard cores — the escape hatch that keeps faults
	// from hanging forever when sweeps stop arriving (quiesced cores,
	// dropped ticks).
	gateTimeout = 10 * sim.Millisecond
	// auditLeakAge is the state age past which the coherence auditor (when
	// the kernel runs with Options.Audit) flags an active state as leaked
	// and its waiters as lost — far beyond any legitimate sweep horizon
	// (two tick periods).
	auditLeakAge = 50 * sim.Millisecond
)

// State is one LATR state entry (Fig 4): 68 bytes in the paper's kernel.
type State struct {
	Active    bool
	Migration bool
	MM        *kernel.MM
	Start     pt.VPN
	Pages     int
	Mask      topo.CoreMask

	// pteDone marks that the first sweeping core performed the deferred
	// page-table unmap of a migration state (§4.3).
	pteDone bool
	// waiters are migration-gated faults released when the state clears.
	waiters []func()

	recordedAt sim.Time
	// span is the lifecycle span of the operation that recorded this state;
	// it holds one retained reference until the state quiesces (or chaos
	// abandons it). Nil for states recorded by span-less direct calls.
	span *obs.Span
	// gen distinguishes successive occupants of a recycled slot, so a
	// gate-timeout armed against one occupant never fires against the next.
	gen uint64
	// gateArmed marks that a forced-sweep timeout is already pending for
	// this occupancy (one timer per state, however many faults gate on it).
	gateArmed bool
	// owner is the core whose queue holds this state, so deactivation can
	// maintain the per-queue live count the sweep skip relies on.
	owner topo.CoreID
}

// Policy is the LATR coherence policy. Its states and reclaim entries
// hold per-MM references that it keeps past the MM's exit (the default
// OnMMExit does nothing): frames are not reusable until their states are
// fully swept and the reclaim delay elapses, so dropping them at exit
// would break the reuse invariant. Both sets drain on their own within
// one sweep round or reclaim period, so nothing accumulates across
// fork/exit churn.
type Policy struct {
	kernel.SyncDefaults
	k   *kernel.Kernel
	cfg Config
	// tun holds the knobs Attach copied from Kernel.Tunables: QueueDepth,
	// FallbackOccupancy, ReclaimDelay and ReclaimPeriod.
	tun kernel.Tunables

	// queues[core][slot]: the per-core cyclic state arrays. Slots are
	// reused once inactive. A core's array stays nil until that core first
	// records a state, then gets all QueueDepth slots at once and never
	// grows: *State pointers escape into reclaim entries, the sweep scratch
	// buffer and gate timers, so the array must not move.
	queues [][]State
	// activeCount[core] tracks live states per queue so sweeps skip empty
	// queues outright — on big topologies most queues are empty most ticks,
	// and the full scan was ~10% of reproduction CPU time.
	activeCount []int
	// pending[core] counts the active states whose mask holds that core:
	// record adds one per mask bit and each Mask.Clear (in sweep and
	// forceSweep) takes one away. A sweep with nothing pending returns at
	// once, and any other sweep stops once it has found them all.
	pending []int
	// sweepScratch is the reusable relevant-state buffer for sweep; the
	// per-sweep allocation showed up in the allocation profile.
	sweepScratch []*State

	reclaim []reclaimEntry
	// unmaps[core] is that core's munmap record, made on its first munmap.
	unmaps []*unmapRecord
	// reclaimFn and auditFn are the two background passes, bound once in
	// Attach: every pass reschedules itself.
	reclaimFn, auditFn func(sim.Time)

	met latrMetrics
}

// latrMetrics holds the policy's metric handles, named in Attach.
type latrMetrics struct {
	statesRecorded, statesCompleted, queueFull, forcedSync, fallbackIPI           metrics.Counter
	initiated, migrationStates, migrationGated, gateTimeoutForced, sweepsWithWork metrics.Counter
	reclaimed, reclaimDeferred, reclaimStalled, unsafeReclaim, leakedState        metrics.Counter
	lostWaiter                                                                    metrics.Counter

	fallbackInflight, lazyFrames, lazyBytes metrics.Gauge

	queueOccupancy, stateSave, fallbackLatency, sweepVisit, stateLifetime metrics.Hist
	reclaimBatch, reclaimStall                                            metrics.Hist
}

func newLATRMetrics(r *metrics.Registry) latrMetrics {
	return latrMetrics{
		statesRecorded:    r.NewCounter("latr.states_recorded"),
		statesCompleted:   r.NewCounter("latr.states_completed"),
		queueFull:         r.NewCounter("latr.queue_full"),
		forcedSync:        r.NewCounter("latr.forced_sync"),
		fallbackIPI:       r.NewCounter("latr.fallback_ipi"),
		initiated:         r.NewCounter("shootdown.initiated"),
		migrationStates:   r.NewCounter("latr.migration_states"),
		migrationGated:    r.NewCounter("latr.migration_gated"),
		gateTimeoutForced: r.NewCounter("latr.gate_timeout_forced"),
		sweepsWithWork:    r.NewCounter("latr.sweeps_with_work"),
		reclaimed:         r.NewCounter("latr.reclaimed"),
		reclaimDeferred:   r.NewCounter("latr.reclaim_deferred"),
		reclaimStalled:    r.NewCounter("chaos.reclaim_stalled"),
		unsafeReclaim:     r.NewCounter("chaos.unsafe_reclaim"),
		leakedState:       r.NewCounter("audit.leaked_state"),
		lostWaiter:        r.NewCounter("audit.lost_waiter"),
		fallbackInflight:  r.NewGauge("latr.fallback_inflight"),
		lazyFrames:        r.NewGauge("latr.lazy_frames"),
		lazyBytes:         r.NewGauge("latr.lazy_bytes"),
		queueOccupancy:    r.NewHist("latr.queue_occupancy"),
		stateSave:         r.NewHist("latr.state_save"),
		fallbackLatency:   r.NewHist("latr.fallback_latency"),
		sweepVisit:        r.NewHist("latr.sweep_visit"),
		stateLifetime:     r.NewHist("latr.state_lifetime"),
		reclaimBatch:      r.NewHist("latr.reclaim_batch"),
		reclaimStall:      r.NewHist("chaos.reclaim_stall"),
	}
}

// unmapRecord is a core's LATR munmap from Munmap to done: the lazy
// path's state save, or the fallback's IPIs and free, with their
// continuations bound once. The core is busy or spinning for all of that
// time, so one record per core serves every munmap it initiates.
type unmapRecord struct {
	p    *Policy
	c    *kernel.Core
	u    kernel.Unmap
	st   *State   // the lazy path's state (nil with no remote cores)
	t0   sim.Time // when the state save or the fallback began
	done func()
	// savedFn ends the lazy path's save; shotFn and freedFn follow the
	// fallback's last ACK and its free.
	savedFn, shotFn, freedFn func()
}

type reclaimEntry struct {
	u         kernel.Unmap
	state     *State // nil when no remote cores participated
	deadline  sim.Time
	initiator *kernel.Core
}

var (
	_ kernel.Policy   = (*Policy)(nil)
	_ kernel.Attacher = (*Policy)(nil)
)

// New returns a LATR policy with the given sweep triggers.
func New(cfg Config) *Policy {
	return &Policy{cfg: cfg}
}

// Attach implements kernel.Attacher: it copies the knobs from the
// kernel's Tunables, sets up the per-core queue table and starts the
// background reclaim thread.
func (p *Policy) Attach(k *kernel.Kernel) {
	p.k = k
	p.tun = k.Tunables
	p.met = newLATRMetrics(k.Metrics)
	n := k.Spec.NumCores()
	p.queues = make([][]State, n)
	p.activeCount = make([]int, n)
	p.pending = make([]int, n)
	p.reclaimFn = p.reclaimPass
	k.Engine.At(p.tun.ReclaimPeriod/2, p.reclaimFn)
	if k.Audit != nil {
		p.auditFn = p.auditPass
		k.Engine.At(p.tun.ReclaimPeriod, p.auditFn)
	}
}

// Name implements kernel.Policy.
func (p *Policy) Name() string { return "latr" }

// HostMode implements kernel.HostCoherent: when LATR runs virtualized, the
// hypervisor applies the same lazy principle to EPT reclamation — reclaimed
// backings park until a deferred tagged flush instead of a synchronous
// quiesce of every vCPU.
func (p *Policy) HostMode() kernel.HostMode { return kernel.HostLazy }

// LazyReplicaSweeps marks LATR as a lazy-capable driver for page-table
// replica maintenance (internal/ptrepl): parked replica invalidations are
// guaranteed to drain, because every active state is eventually swept
// (ReplSweepApply below), force-swept, or completed, and the reclaim pass
// force-drains before any frame is freed. Policies without this marker
// make ptrepl degrade lazy configurations to eager updates.
func (p *Policy) LazyReplicaSweeps() bool { return true }

// record claims a free slot in core c's state array. ok is false when all
// slots are active (the fallback-IPI condition).
func (p *Policy) record(c *kernel.Core, s State) (*State, bool) {
	q := p.queues[c.ID]
	if q == nil {
		q = make([]State, p.tun.QueueDepth)
		p.queues[c.ID] = q
	}
	free := -1
	occupied := 0
	for i := range q {
		if q[i].Active {
			occupied++
		} else if free < 0 {
			free = i
		}
	}
	p.met.queueOccupancy.Observe(sim.Time(occupied))
	if free < 0 || occupied >= p.tun.FallbackOccupancy {
		p.met.queueFull.Inc()
		return nil, false
	}
	s.Active = true
	s.recordedAt = p.k.Now()
	s.gen = q[free].gen + 1
	s.owner = c.ID
	q[free] = s
	p.activeCount[c.ID]++
	s.Mask.ForEach(func(id topo.CoreID) { p.pending[id]++ })
	p.met.statesRecorded.Inc()
	return &q[free], true
}

// Munmap implements kernel.Policy — the lazy free path of Fig 2b: save the
// state, park memory on the lazy lists, return immediately.
func (p *Policy) Munmap(c *kernel.Core, u kernel.Unmap, done func()) {
	k := p.k
	mask := k.ShootdownTargets(c, u.MM)

	var st *State
	if !mask.Empty() || u.ForceSync {
		var ok bool
		if !u.ForceSync {
			st, ok = p.record(c, State{MM: u.MM, Start: u.Start, Pages: u.Pages, Mask: mask})
		}
		if !ok {
			// All 64 states busy — or the caller requested synchronous
			// semantics (§7's opt-out flag): fall back to the synchronous
			// IPI mechanism (§4.2) and free immediately like Linux.
			if u.ForceSync {
				p.met.forcedSync.Inc()
			} else {
				p.met.fallbackIPI.Inc()
			}
			// Backpressure accounting: the caller is stalled from here until
			// every target ACKs. The fallback is deadlock-free by
			// construction — completion depends only on IPI delivery and the
			// targets' interrupt handlers, never on sweeps, ticks, or the
			// reclaim thread, so no cycle back into the saturated queue can
			// form (chaos may stretch the wait, not wedge it).
			r := p.unmapRecord(c)
			r.u, r.t0, r.done = u, k.Now(), done
			p.met.fallbackInflight.Add(1)
			// A second target computation (mask was the first): it counts
			// shootdown.lazy_skipped and flushes skipped idle cores again,
			// as perfbench's committed digests expect. The IPIs always go
			// out: an empty ForceSync target set still pays the setup.
			targets := k.ShootdownTargets(c, u.MM)
			p.met.initiated.Inc()
			k.SendShootdownIPIs(c, u.MM, u.Start, u.Pages, targets, r.shotFn)
			return
		}
		p.met.initiated.Inc()
	}

	// The span outlives the syscall: one reference for the state's quiesce
	// (all mask bits swept) and one for the lazy reclaim of its memory.
	u.Span.SetTargets(mask)
	if st != nil {
		st.span = u.Span
		u.Span.Retain()
	}
	u.Span.Retain()
	r := p.unmapRecord(c)
	r.u, r.st, r.t0, r.done = u, st, k.Now(), done
	c.Busy(k.Cost.LATRStateSave+sim.Time(u.Pages)*k.Cost.LATRLazyPerPage, false, r.savedFn)
}

// unmapRecord returns c's munmap record.
func (p *Policy) unmapRecord(c *kernel.Core) *unmapRecord {
	if p.unmaps == nil {
		p.unmaps = make([]*unmapRecord, len(p.k.Cores))
	}
	r := p.unmaps[c.ID]
	if r == nil {
		r = &unmapRecord{p: p, c: c}
		r.savedFn, r.shotFn, r.freedFn = r.saved, r.shot, r.freed
		p.unmaps[c.ID] = r
	}
	return r
}

// saved ends the lazy path's state save: the unmap's memory goes on the
// lazy lists and the initiator continues.
func (r *unmapRecord) saved() {
	p, k, c := r.p, r.p.k, r.c
	u, st, tS, done := r.u, r.st, r.t0, r.done
	r.u, r.st, r.done = kernel.Unmap{}, nil, nil
	p.met.stateSave.Observe(k.Cost.LATRStateSave)
	// Lazy reclamation (§4.2): VA and frames leave circulation but are
	// not freed yet.
	if !u.KeepVMA {
		u.MM.Space.MarkLazy(u.Pages)
	}
	p.met.lazyFrames.Add(int64(len(u.Frames)))
	p.met.lazyBytes.Add(int64(u.Pages) * 4096)
	p.reclaim = append(p.reclaim, reclaimEntry{
		u:         u,
		state:     st,
		deadline:  k.Now() + p.tun.ReclaimDelay,
		initiator: c,
	})
	u.Span.MarkLazy(obs.PhaseSend, c.ID, tS, k.Now()-tS)
	done()
}

// shot follows the fallback's last ACK: the synchronous free.
func (r *unmapRecord) shot() {
	u := r.u
	r.u = kernel.Unmap{}
	r.p.k.FreeUnmapped(r.c, u, r.freedFn)
}

// freed ends the fallback once its free is done.
func (r *unmapRecord) freed() {
	p, done := r.p, r.done
	r.done = nil
	p.met.fallbackInflight.Add(-1)
	p.met.fallbackLatency.Observe(p.k.Now() - r.t0)
	done()
}

// SyncChange implements kernel.Policy: permission/remap changes cannot be
// lazy (Table 1), so LATR uses the stock IPI path.
func (p *Policy) SyncChange(c *kernel.Core, mm *kernel.MM, start pt.VPN, pages int, done func()) {
	p.k.Shootdown(c, mm, start, pages, p.k.ShootdownTargets(c, mm), done)
}

// NUMAUnmap implements kernel.Policy — the lazy migration path of Fig 3b:
// record a migration state without touching the page table. The first core
// to sweep the state performs the deferred unmap; every core invalidates
// locally; faults gate on the state clearing (§4.3, §4.4).
func (p *Policy) NUMAUnmap(c *kernel.Core, mm *kernel.MM, start pt.VPN, pages int, done func()) {
	k := p.k
	mask := k.ShootdownTargets(c, mm)
	mask.Set(c.ID) // the initiator also sweeps (Fig 3b: core 2 clears the PTE at its tick)

	st, ok := p.record(c, State{MM: mm, Start: start, Pages: pages, Mask: mask, Migration: true})
	if !ok {
		// Fallback: do what Linux does, synchronously. Like Linux it
		// computes the targets after the hint prologue, so this is a
		// second target computation (mask was the first) at a later
		// instant: it repeats the lazy-TLB skip's count and flushes.
		p.met.fallbackIPI.Inc()
		p.SyncDefaults.NUMAUnmap(c, mm, start, pages, done)
		return
	}
	p.met.initiated.Inc()
	p.met.migrationStates.Inc()
	if sp := c.Span(); sp != nil {
		sp.SetTargets(mask)
		st.span = sp
		sp.Retain()
		sp.MarkLazy(obs.PhaseSend, c.ID, k.Now(), k.Cost.LATRStateSave)
	}
	c.Busy(k.Cost.LATRStateSave, false, done)
}

// OnTick implements kernel.Policy.
func (p *Policy) OnTick(c *kernel.Core) sim.Time {
	if p.cfg.DisableTickSweep {
		return 0
	}
	return p.sweep(c)
}

// OnContextSwitch implements kernel.Policy. Under PCIDs the sweep at
// context switch is mandatory — it runs before the PCID change (§4.5).
func (p *Policy) OnContextSwitch(c *kernel.Core) sim.Time {
	if p.cfg.DisableContextSwitchSweep {
		return 0
	}
	return p.sweep(c)
}

// sweep scans all cores' state arrays on behalf of core c (§4.1
// "Asynchronous remote shootdown"), invalidating c's TLB for every state
// whose bitmask includes c and clearing the bit. Mirroring Linux's
// threshold, a sweep whose states cover more than FullFlushThreshold pages
// does one full flush instead of per-page INVLPGs.
func (p *Policy) sweep(c *kernel.Core) sim.Time {
	k := p.k
	m := &k.Cost
	want := p.pending[c.ID]
	if want == 0 {
		return m.LATRSweepBase
	}
	relevant := p.sweepScratch[:0]
	totalPages := 0
scan:
	for coreIdx := range p.queues {
		if p.activeCount[coreIdx] == 0 {
			continue
		}
		q := p.queues[coreIdx]
		for i := range q {
			st := &q[i]
			if st.Active && st.Mask.Has(c.ID) {
				relevant = append(relevant, st)
				totalPages += st.Pages
				if len(relevant) == want {
					break scan
				}
			}
		}
	}
	defer func() {
		for i := range relevant {
			relevant[i] = nil
		}
		p.sweepScratch = relevant[:0]
	}()
	cost := m.LATRSweepBase
	p.met.sweepsWithWork.Inc()

	fullFlush := totalPages > m.FullFlushThreshold
	if fullFlush {
		c.TLB.FlushAll()
		cost += m.TLBFullFlush
	}
	for _, st := range relevant {
		// Phase slices serialize on the sweeping core: each state's visit
		// begins where the previous one's work ended.
		visitBegin := k.Now() + cost
		if st.Migration && !st.pteDone {
			// First sweeping core performs the deferred page-table unmap
			// ("Clear PTE" in Fig 3b).
			for i := 0; i < st.Pages; i++ {
				st.MM.PT.SetNUMAHint(st.Start+pt.VPN(i), true)
			}
			st.pteDone = true
			cost += sim.Time(st.Pages) * m.PTEClearPerPage
		}
		if !fullFlush {
			c.TLB.InvalidateRange(c.PCIDOf(st.MM), st.Start, st.Start+pt.VPN(st.Pages))
			cost += sim.Time(st.Pages) * m.InvlpgLocal
		}
		cost += m.LATRSweepPerEntry
		// Replica invalidations parked for this core's socket apply on the
		// same visit (the ptrepl lazy ablation: replica maintenance rides
		// the sweep instead of eager remote stores).
		cost += k.ReplSweepApply(c, st.MM, st.Start, st.Pages)
		p.met.sweepVisit.Observe(m.LATRSweepPerEntry)
		st.span.MarkLazy(obs.PhaseInvalidate, c.ID, visitBegin, k.Now()+cost-visitBegin)
		st.Mask.Clear(c.ID)
		p.pending[c.ID]--
		if st.Mask.Empty() {
			p.completeState(st, c.ID, k.Now()+cost)
		}
	}
	return cost
}

// completeState deactivates a fully-swept state and releases gated faults.
// by is the core whose sweep cleared the last mask bit and at is when that
// sweep's work finishes (the state quiesce point, which may trail k.Now()
// by the sweep cost accumulated so far); the span's quiesce is marked on
// that lane and the state's retained reference dropped.
func (p *Policy) completeState(st *State, by topo.CoreID, at sim.Time) {
	st.Active = false
	p.activeCount[st.owner]--
	// Quiesce point: any replica invalidation for this range still parked
	// on a socket whose cores never swept it (no replica there, or the
	// sweep raced the completion) drains now, before reclaim can free.
	p.k.ReplComplete(st.MM, st.Start, st.Pages)
	p.met.statesCompleted.Inc()
	p.met.stateLifetime.Observe(p.k.Now() - st.recordedAt)
	if sp := st.span; sp != nil {
		st.span = nil
		sp.MarkLazy(obs.PhaseAck, by, at, 0)
		sp.Release(at)
	}
	if len(st.waiters) > 0 {
		ws := st.waiters
		st.waiters = nil
		for _, w := range ws {
			w := w
			p.k.Engine.At(p.k.Now(), func(sim.Time) { w() })
		}
	}
}

// GateMigration defers a NUMA-hint fault while a migration state covering
// vpn is still being swept (§4.4: the fault may proceed only after all
// cores invalidated). It reports whether the fault was deferred; cont runs
// when the state clears.
func (p *Policy) GateMigration(mm *kernel.MM, vpn pt.VPN, cont func()) bool {
	for coreIdx := range p.queues {
		if p.activeCount[coreIdx] == 0 {
			continue
		}
		q := p.queues[coreIdx]
		for i := range q {
			st := &q[i]
			if st.Active && st.Migration && st.MM == mm &&
				vpn >= st.Start && vpn < st.Start+pt.VPN(st.Pages) {
				st.waiters = append(st.waiters, cont)
				p.met.migrationGated.Inc()
				p.armGateTimeout(st)
				return true
			}
		}
	}
	return false
}

// armGateTimeout schedules the escape hatch for a gated fault: if the
// state is still active (same occupancy, by generation) when gateTimeout
// elapses, the laggard cores' sweeps are performed on their behalf so the
// waiters run. Without this, a quiesced or tick-starved core wedges every
// fault gated on its bit forever.
func (p *Policy) armGateTimeout(st *State) {
	if st.gateArmed {
		return
	}
	st.gateArmed = true
	gen := st.gen
	p.k.Engine.After(gateTimeout, func(sim.Time) {
		if !st.Active || st.gen != gen {
			return
		}
		p.met.gateTimeoutForced.Inc()
		p.forceSweep(st)
	})
}

// forceSweep completes a state on behalf of every core still in its mask:
// the deferred PTE ops run if no sweeping core got to them, each laggard
// core's TLB drops the range (charged to that core as injected work), and
// the state deactivates, releasing its waiters.
func (p *Policy) forceSweep(st *State) {
	k := p.k
	m := &k.Cost
	if st.Migration && !st.pteDone {
		for i := 0; i < st.Pages; i++ {
			st.MM.PT.SetNUMAHint(st.Start+pt.VPN(i), true)
		}
		st.pteDone = true
	}
	cores := st.Mask.Cores()
	last := topo.CoreID(0)
	forcedCost := m.LATRSweepPerEntry + sim.Time(st.Pages)*m.InvlpgLocal
	for _, id := range cores {
		c := k.Cores[id]
		c.TLB.InvalidateRange(c.PCIDOf(st.MM), st.Start, st.Start+pt.VPN(st.Pages))
		c.Inject(forcedCost)
		st.Mask.Clear(id)
		p.pending[id]--
		st.span.MarkLazy(obs.PhaseInvalidate, id, k.Now(), forcedCost)
		last = id
	}
	if st.Mask.Empty() {
		p.completeState(st, last, k.Now()+forcedCost)
	}
}

// reclaimPass is the background reclaim thread (Fig 2b "Lazy reclaim"):
// every period it frees lazy-list entries older than the reclaim delay.
// As a robustness extension over the paper's fixed 2 ms assumption, an
// entry whose state is somehow still active (e.g. a core that has not
// ticked due to extreme IRQ-off pressure) is deferred another period
// rather than freed unsafely.
func (p *Policy) reclaimPass(now sim.Time) {
	k := p.k
	inj := k.Injector()
	if inj != nil {
		if d := inj.ReclaimStall(); d > 0 {
			// Chaos: the reclaim thread is descheduled for d. Lazy memory
			// simply ages further — correctness never depends on the thread
			// running promptly, only on it running after the delay.
			p.met.reclaimStalled.Inc()
			p.met.reclaimStall.Observe(d)
			k.Engine.At(now+d, p.reclaimFn)
			return
		}
	}
	defer k.Engine.At(now+p.tun.ReclaimPeriod, p.reclaimFn)

	keep := p.reclaim[:0]
	var freed int
	for _, e := range p.reclaim {
		if e.deadline > now {
			keep = append(keep, e)
			continue
		}
		if e.state != nil && e.state.Active {
			if inj != nil && inj.UnsafeReclaim() {
				// Chaos (negative tests only): deliberately free while the
				// state is live, manufacturing the §4.2 violation so the
				// auditor's detection can be proven.
				p.met.unsafeReclaim.Inc()
				// The state will never legitimately quiesce once its memory
				// is gone: abandon the span's quiesce hold here (flagged
				// unsafe) so the lifecycle still closes while the auditor
				// reports the violation.
				if sp := e.state.span; sp != nil {
					e.state.span = nil
					sp.MarkUnsafe(obs.PhaseAck, e.initiator.ID, now, 0)
					sp.Release(now)
				}
			} else {
				p.met.reclaimDeferred.Inc()
				e.deadline = now + p.tun.ReclaimPeriod
				keep = append(keep, e)
				continue
			}
		}
		// States with no remote participants never sweep, so their parked
		// replica invalidations drain here, at the frame-free boundary.
		k.ReplComplete(e.u.MM, e.u.Start, e.u.Pages)
		p.met.lazyFrames.Add(-int64(len(e.u.Frames)))
		k.ReleaseFrames(e.u.Frames)
		if !e.u.KeepVMA {
			e.u.MM.Space.ReleaseLazy(e.u.Start, e.u.Pages)
		}
		p.met.lazyBytes.Add(-int64(e.u.Pages) * 4096)
		p.met.reclaimed.Inc()
		e.u.Span.MarkLazy(obs.PhaseReclaim, e.initiator.ID, now, k.Cost.LATRReclaimPerEntry)
		e.u.Span.Release(now)
		// The reclaim work steals CPU on the initiating core, like the
		// kernel thread would.
		e.initiator.Inject(k.Cost.LATRReclaimPerEntry)
		freed++
	}
	p.reclaim = keep
	if freed > 0 {
		p.met.reclaimBatch.Observe(sim.Time(freed))
	}
}

// auditPass is the coherence auditor's kernel-wide scan (runs only when
// the kernel was built with Options.Audit): any state still active long
// past every legitimate sweep horizon has leaked — some core will never
// clear its bit — and every fault gated on it is lost. The auditor
// dedups by (kind, core, vpn, pfn), so a long-lived leak reports once
// with its first-occurrence time and then counts occurrences.
func (p *Policy) auditPass(now sim.Time) {
	k := p.k
	defer k.Engine.At(now+p.tun.ReclaimPeriod, p.auditFn)
	for coreIdx := range p.queues {
		if p.activeCount[coreIdx] == 0 {
			continue
		}
		q := p.queues[coreIdx]
		for i := range q {
			st := &q[i]
			if !st.Active {
				continue
			}
			age := now - st.recordedAt
			if age <= auditLeakAge {
				continue
			}
			p.met.leakedState.Inc()
			k.Audit.Report(tlb.Violation{
				Kind: tlb.ViolationLeakedState,
				Time: st.recordedAt,
				Core: topo.CoreID(coreIdx),
				VPN:  st.Start,
				Detail: fmt.Sprintf("state [%#x,+%d) slot %d migration=%v mask=%v active for %v",
					uint64(st.Start.Addr()), st.Pages, i, st.Migration, st.Mask, age),
			})
			// A leaked state will never quiesce, so its span's quiesce hold
			// would stay open forever. Abandon it (flagged unsafe) — the
			// violation above is the record of why — so the span lifecycle
			// terminates even with the sweep machinery dead.
			if sp := st.span; sp != nil {
				st.span = nil
				sp.MarkUnsafe(obs.PhaseAck, topo.CoreID(coreIdx), now, 0)
				sp.Release(now)
			}
			if n := len(st.waiters); n > 0 {
				p.met.lostWaiter.Add(uint64(n))
				k.Audit.Report(tlb.Violation{
					Kind: tlb.ViolationLostWaiter,
					Time: st.recordedAt,
					Core: topo.CoreID(coreIdx),
					VPN:  st.Start,
					Detail: fmt.Sprintf("%d fault(s) gated on leaked state [%#x,+%d)",
						n, uint64(st.Start.Addr()), st.Pages),
				})
			}
		}
	}
}

// PendingWaiters reports migration-gated faults not yet released (for
// tests).
func (p *Policy) PendingWaiters() int {
	n := 0
	for _, q := range p.queues {
		for i := range q {
			n += len(q[i].waiters)
		}
	}
	return n
}

// PendingStates reports active states across all cores (for tests).
func (p *Policy) PendingStates() int {
	n := 0
	for _, q := range p.queues {
		for i := range q {
			if q[i].Active {
				n++
			}
		}
	}
	return n
}

// PendingReclaim reports entries awaiting lazy reclamation (for tests).
func (p *Policy) PendingReclaim() int { return len(p.reclaim) }

// String describes the policy configuration.
func (p *Policy) String() string {
	return fmt.Sprintf("latr(depth=%d, delay=%v)", p.tun.QueueDepth, p.tun.ReclaimDelay)
}
