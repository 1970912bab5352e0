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
	"latr/internal/obs"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/tlb"
	"latr/internal/topo"
)

// Config tunes the LATR mechanism; zero fields take paper defaults.
type Config struct {
	// QueueDepth is the number of LATR states per core (64 in the paper;
	// overflowing falls back to IPIs — §4.2, §8).
	QueueDepth int
	// ReclaimDelay is how long freed memory parks on the lazy lists (twice
	// the scheduler tick, 2 ms, in the paper — §4.2).
	ReclaimDelay sim.Time
	// ReclaimPeriod is how often the background reclaim thread runs.
	ReclaimPeriod sim.Time
	// GateTimeout bounds how long a migration-gated fault (§4.4) may wait
	// for its state to clear. Past the timeout the state is force-swept on
	// behalf of the laggard cores — the escape hatch that keeps faults
	// from hanging forever when sweeps stop arriving (quiesced cores,
	// dropped ticks). Zero takes the 10 ms default.
	GateTimeout sim.Time
	// AuditLeakAge is the state age past which the coherence auditor (when
	// the kernel runs with Options.Audit) flags an active state as leaked
	// and its waiters as lost. Zero takes the 50 ms default — far beyond
	// any legitimate sweep horizon (two tick periods).
	AuditLeakAge sim.Time
	// FallbackOccupancy is the queue occupancy at or above which a new
	// operation takes the synchronous IPI path even when a slot is still
	// free. The paper's behaviour is FallbackOccupancy == QueueDepth
	// (fall back only when the array is full); the auto-tuner explores
	// earlier fallback as a way to bound sweep work under bursts.
	FallbackOccupancy int
	// DisableTickSweep and DisableContextSwitchSweep turn off the sweep
	// trigger points (both on in the paper; ablation knobs here).
	DisableTickSweep          bool
	DisableContextSwitchSweep bool
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		QueueDepth:        64,
		ReclaimDelay:      2 * sim.Millisecond,
		ReclaimPeriod:     sim.Millisecond,
		GateTimeout:       10 * sim.Millisecond,
		AuditLeakAge:      50 * sim.Millisecond,
		FallbackOccupancy: 64,
	}
}

// Validate rejects nonsensical configurations. Zero fields are fine (they
// take defaults); negative depths or durations have no meaning and, before
// this check existed, silently broke the reclaim thread's self-scheduling.
func (c Config) Validate() error {
	if c.QueueDepth < 0 {
		return fmt.Errorf("latr: QueueDepth %d is negative", c.QueueDepth)
	}
	if c.ReclaimDelay < 0 {
		return fmt.Errorf("latr: ReclaimDelay %v is negative", c.ReclaimDelay)
	}
	if c.ReclaimPeriod < 0 {
		return fmt.Errorf("latr: ReclaimPeriod %v is negative", c.ReclaimPeriod)
	}
	if c.GateTimeout < 0 {
		return fmt.Errorf("latr: GateTimeout %v is negative", c.GateTimeout)
	}
	if c.AuditLeakAge < 0 {
		return fmt.Errorf("latr: AuditLeakAge %v is negative", c.AuditLeakAge)
	}
	if c.FallbackOccupancy < 0 {
		return fmt.Errorf("latr: FallbackOccupancy %d is negative", c.FallbackOccupancy)
	}
	return nil
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.QueueDepth <= 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.ReclaimDelay <= 0 {
		c.ReclaimDelay = d.ReclaimDelay
	}
	if c.ReclaimPeriod <= 0 {
		c.ReclaimPeriod = d.ReclaimPeriod
	}
	if c.GateTimeout <= 0 {
		c.GateTimeout = d.GateTimeout
	}
	if c.AuditLeakAge <= 0 {
		c.AuditLeakAge = d.AuditLeakAge
	}
	if c.FallbackOccupancy <= 0 || c.FallbackOccupancy > c.QueueDepth {
		c.FallbackOccupancy = c.QueueDepth
	}
	return c
}

// ConfigFromTunables projects the kernel-wide knob struct onto the LATR
// policy config. The cost-model knobs (sweep cadence, full-flush cutoff)
// are applied separately by kernel.New via Options.Tunables; the fields
// Tunables does not cover (gate timeout, audit age, sweep-trigger gates)
// keep their defaults.
func ConfigFromTunables(t kernel.Tunables) Config {
	t = t.WithDefaults()
	return Config{
		QueueDepth:        t.QueueDepth,
		ReclaimDelay:      t.ReclaimDelay,
		ReclaimPeriod:     t.ReclaimPeriod,
		FallbackOccupancy: t.FallbackOccupancy,
	}
}

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

// Policy is the LATR coherence policy.
type Policy struct {
	k   *kernel.Kernel
	cfg Config

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
	// sweepScratch is the reusable relevant-state buffer for sweep; the
	// per-sweep allocation showed up in the allocation profile.
	sweepScratch []*State

	reclaim []reclaimEntry
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

// New returns a LATR policy with cfg (zero-value fields take defaults).
func New(cfg Config) *Policy {
	return &Policy{cfg: cfg.withDefaults()}
}

// Attach implements kernel.Attacher: it sets up the per-core queue table
// and starts the background reclaim thread.
func (p *Policy) Attach(k *kernel.Kernel) {
	p.k = k
	// Policies built by literal (bypassing New) may carry a zero or negative
	// ReclaimPeriod; before this guard the reclaim thread either rescheduled
	// itself at the same instant forever (period 0 — the engine never
	// advanced past the first pass) or panicked in Engine.At (negative).
	if p.cfg.ReclaimPeriod <= 0 || p.cfg.QueueDepth <= 0 {
		p.cfg = p.cfg.withDefaults()
	}
	n := k.Spec.NumCores()
	p.queues = make([][]State, n)
	p.activeCount = make([]int, n)
	k.Engine.At(p.cfg.ReclaimPeriod/2, p.reclaimPass)
	if k.Audit != nil {
		k.Engine.At(p.cfg.ReclaimPeriod, p.auditPass)
	}
}

// Name implements kernel.Policy.
func (p *Policy) Name() string { return "latr" }

// HostMode implements kernel.HostCoherent: when LATR runs virtualized, the
// hypervisor applies the same lazy principle to EPT reclamation — reclaimed
// backings park until a deferred tagged flush instead of a synchronous
// quiesce of every vCPU.
func (p *Policy) HostMode() kernel.HostMode { return kernel.HostLazy }

// Config returns the active configuration.
func (p *Policy) Config() Config { return p.cfg }

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
		q = make([]State, p.cfg.QueueDepth)
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
	p.k.Metrics.Observe("latr.queue_occupancy", sim.Time(occupied))
	// Policies built by literal may carry a zero or out-of-range fallback
	// threshold; treat both as the paper behaviour (full queue only).
	limit := p.cfg.FallbackOccupancy
	if limit <= 0 || limit > len(q) {
		limit = len(q)
	}
	if free < 0 || occupied >= limit {
		p.k.Metrics.Inc("latr.queue_full", 1)
		return nil, false
	}
	s.Active = true
	s.recordedAt = p.k.Now()
	s.gen = q[free].gen + 1
	s.owner = c.ID
	q[free] = s
	p.activeCount[c.ID]++
	p.k.Metrics.Inc("latr.states_recorded", 1)
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
				k.Metrics.Inc("latr.forced_sync", 1)
			} else {
				k.Metrics.Inc("latr.fallback_ipi", 1)
			}
			// Backpressure accounting: the caller is stalled from here until
			// every target ACKs. The fallback is deadlock-free by
			// construction — completion depends only on IPI delivery and the
			// targets' interrupt handlers, never on sweeps, ticks, or the
			// reclaim thread, so no cycle back into the saturated queue can
			// form (chaos may stretch the wait, not wedge it).
			t0 := k.Now()
			k.Metrics.GaugeAdd("latr.fallback_inflight", 1)
			// A second target computation (mask was the first): it counts
			// shootdown.lazy_skipped and flushes skipped idle cores again,
			// as perfbench's committed digests expect. The IPIs always go
			// out: an empty ForceSync target set still pays the setup.
			targets := k.ShootdownTargets(c, u.MM)
			k.Metrics.Inc("shootdown.initiated", 1)
			k.SendShootdownIPIs(c, u.MM, u.Start, u.Pages, targets, func() {
				k.FreeUnmapped(c, u, func() {
					k.Metrics.GaugeAdd("latr.fallback_inflight", -1)
					k.Metrics.Observe("latr.fallback_latency", k.Now()-t0)
					done()
				})
			})
			return
		}
		k.Metrics.Inc("shootdown.initiated", 1)
	}

	// The span outlives the syscall: one reference for the state's quiesce
	// (all mask bits swept) and one for the lazy reclaim of its memory.
	u.Span.SetTargets(mask)
	if st != nil {
		st.span = u.Span
		u.Span.Retain()
	}
	u.Span.Retain()
	tS := k.Now()
	saveCost := k.Cost.LATRStateSave + sim.Time(u.Pages)*k.Cost.LATRLazyPerPage
	c.Busy(saveCost, false, func() {
		k.Metrics.Observe("latr.state_save", k.Cost.LATRStateSave)
		// Lazy reclamation (§4.2): VA and frames leave circulation but are
		// not freed yet.
		if !u.KeepVMA {
			u.MM.Space.MarkLazy(u.Pages)
		}
		k.Metrics.GaugeAdd("latr.lazy_frames", int64(len(u.Frames)))
		k.Metrics.GaugeAdd("latr.lazy_bytes", int64(u.Pages)*4096)
		p.reclaim = append(p.reclaim, reclaimEntry{
			u:         u,
			state:     st,
			deadline:  k.Now() + p.cfg.ReclaimDelay,
			initiator: c,
		})
		u.Span.MarkLazy(obs.PhaseSend, c.ID, tS, k.Now()-tS)
		done()
	})
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
		k.Metrics.Inc("latr.fallback_ipi", 1)
		c.Busy(k.MarkNUMAHints(c, mm, start, pages), true, func() {
			k.Shootdown(c, mm, start, pages, k.ShootdownTargets(c, mm), done)
		})
		return
	}
	k.Metrics.Inc("shootdown.initiated", 1)
	k.Metrics.Inc("latr.migration_states", 1)
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

// OnPageTouch implements kernel.Policy.
func (p *Policy) OnPageTouch(*kernel.Core, *kernel.MM, pt.VPN) sim.Time { return 0 }

// OnMMExit implements kernel.Policy. LATR deliberately keeps its per-MM
// references (pending states and reclaim entries) alive past exit: frames
// are not reusable until their states are fully swept and the reclaim delay
// elapses, so dropping them here would break the reuse invariant. Both sets
// drain on their own within one sweep round / reclaim period, so nothing
// accumulates across fork/exit churn.
func (p *Policy) OnMMExit(*kernel.MM) {}

// sweep scans all cores' state arrays on behalf of core c (§4.1
// "Asynchronous remote shootdown"), invalidating c's TLB for every state
// whose bitmask includes c and clearing the bit. Mirroring Linux's
// threshold, a sweep whose states cover more than FullFlushThreshold pages
// does one full flush instead of per-page INVLPGs.
func (p *Policy) sweep(c *kernel.Core) sim.Time {
	k := p.k
	m := &k.Cost
	relevant := p.sweepScratch[:0]
	totalPages := 0
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
	if len(relevant) == 0 {
		return cost
	}
	k.Metrics.Inc("latr.sweeps_with_work", 1)

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
		k.Metrics.Observe("latr.sweep_visit", m.LATRSweepPerEntry)
		st.span.MarkLazy(obs.PhaseInvalidate, c.ID, visitBegin, k.Now()+cost-visitBegin)
		st.Mask.Clear(c.ID)
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
	p.k.Metrics.Inc("latr.states_completed", 1)
	p.k.Metrics.Observe("latr.state_lifetime", p.k.Now()-st.recordedAt)
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
				p.k.Metrics.Inc("latr.migration_gated", 1)
				p.armGateTimeout(st)
				return true
			}
		}
	}
	return false
}

// armGateTimeout schedules the escape hatch for a gated fault: if the
// state is still active (same occupancy, by generation) when GateTimeout
// elapses, the laggard cores' sweeps are performed on their behalf so the
// waiters run. Without this, a quiesced or tick-starved core wedges every
// fault gated on its bit forever.
func (p *Policy) armGateTimeout(st *State) {
	if st.gateArmed {
		return
	}
	st.gateArmed = true
	gen := st.gen
	p.k.Engine.After(p.cfg.GateTimeout, func(sim.Time) {
		if !st.Active || st.gen != gen {
			return
		}
		p.k.Metrics.Inc("latr.gate_timeout_forced", 1)
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
			k.Metrics.Inc("chaos.reclaim_stalled", 1)
			k.Metrics.Observe("chaos.reclaim_stall", d)
			k.Engine.At(now+d, p.reclaimPass)
			return
		}
	}
	defer k.Engine.At(now+p.cfg.ReclaimPeriod, p.reclaimPass)

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
				k.Metrics.Inc("chaos.unsafe_reclaim", 1)
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
				k.Metrics.Inc("latr.reclaim_deferred", 1)
				e.deadline = now + p.cfg.ReclaimPeriod
				keep = append(keep, e)
				continue
			}
		}
		// States with no remote participants never sweep, so their parked
		// replica invalidations drain here, at the frame-free boundary.
		k.ReplComplete(e.u.MM, e.u.Start, e.u.Pages)
		k.ReleaseFrames(e.u.Frames)
		if !e.u.KeepVMA {
			e.u.MM.Space.ReleaseLazy(e.u.Start, e.u.Pages)
		}
		k.Metrics.GaugeAdd("latr.lazy_frames", -int64(len(e.u.Frames)))
		k.Metrics.GaugeAdd("latr.lazy_bytes", -int64(e.u.Pages)*4096)
		k.Metrics.Inc("latr.reclaimed", 1)
		e.u.Span.MarkLazy(obs.PhaseReclaim, e.initiator.ID, now, k.Cost.LATRReclaimPerEntry)
		e.u.Span.Release(now)
		// The reclaim work steals CPU on the initiating core, like the
		// kernel thread would.
		e.initiator.Inject(k.Cost.LATRReclaimPerEntry)
		freed++
	}
	p.reclaim = keep
	if freed > 0 {
		k.Metrics.Observe("latr.reclaim_batch", sim.Time(freed))
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
	defer k.Engine.At(now+p.cfg.ReclaimPeriod, p.auditPass)
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
			if age <= p.cfg.AuditLeakAge {
				continue
			}
			k.Metrics.Inc("audit.leaked_state", 1)
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
				k.Metrics.Inc("audit.lost_waiter", uint64(n))
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
	return fmt.Sprintf("latr(depth=%d, delay=%v)", p.cfg.QueueDepth, p.cfg.ReclaimDelay)
}
