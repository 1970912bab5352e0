// Package ptrepl implements NUMA page-table replication — the fourth
// policy axis (ROADMAP), after numaPTE (Gao et al., 2024).
//
// On a multi-socket machine a hardware page walk whose page-table pages
// live on a remote socket pays the local/remote DRAM gap on every level it
// fetches. numaPTE replicates page-table pages per socket so walks hit
// local memory; the hard part is keeping the replicas coherent on every
// PTE store. This package models that trade behind kernel.ReplHandler:
//
//   - Walk routing: a TLB miss on a socket holding a replica (or the
//     master) charges the flat PTWalk; a socket without one pays
//     Cost.ReplWalkRemote[hops] on top.
//   - Replication policy: PolicyNone keeps one master table (the Linux
//     baseline — first-touch placement, every remote socket pays);
//     PolicyAll replicates to every socket up front; PolicyAdaptive
//     replicates a socket after kernel.Tunables.ReplicateThreshold remote
//     walks and migrates the master towards the dominant writer socket.
//   - Coherent updates: installs and permission changes propagate eagerly
//     (Table 1 allows laziness only for frees). Unmaps propagate eagerly
//     too — unless Lazy is set under a lazy-capable policy (LATR), in
//     which case remote-socket invalidations are parked as per-replica
//     stale overrides and applied when that socket's cores sweep
//     (kernel.ReplSweepApply) or the state completes — the lazy-replica
//     ablation no paper has run. While parked, the override can serve a
//     walk that misses the master (StaleWalk): the replica-level analogue
//     of LATR's stale TLB entries, safe for exactly as long as the frames
//     sit on the lazy lists.
//
// Replicas are modelled as per-socket stale-delta maps over the master
// (a replica is "the master as of its last absorbed store"), so the
// architectural page table stays the single pt.PageTable and the flat
// litmus oracle sees replication only through timing — invisibility is
// the correctness claim, and the skip-one-replica / leak-replica
// mutations exist to prove the oracle would catch a real divergence.
package ptrepl

import (
	"fmt"

	"latr/internal/kernel"
	"latr/internal/metrics"
	"latr/internal/pt"
	"latr/internal/sim"
)

// Policy selects the replication strategy.
type Policy string

// Replication policies.
const (
	// PolicyNone keeps a single master table on the first-touch socket;
	// remote sockets pay the remote-walk penalty on every TLB miss.
	PolicyNone Policy = "none"
	// PolicyAll replicates the page table to every socket up front.
	PolicyAll Policy = "replicate-all"
	// PolicyAdaptive replicates on remote-walk pressure and migrates the
	// master towards the dominant writer socket (numaPTE's policy).
	PolicyAdaptive Policy = "adaptive"
)

// Mutation selects a deliberate defect for oracle-sensitivity tests.
type Mutation string

// Mutations (litmus sensitivity probes; never enabled in experiments).
const (
	// MutSkipReplica loses every invalidation destined for the
	// highest-index replica socket: its replica serves stale translations
	// even after the backing frames are freed.
	MutSkipReplica Mutation = "skip-one-replica"
	// MutLeakReplica skips replica teardown on address-space exit.
	MutLeakReplica Mutation = "leak-replica"
)

// Mutations lists the available sensitivity probes.
func Mutations() []Mutation { return []Mutation{MutSkipReplica, MutLeakReplica} }

// Config tunes the replication subsystem. PolicyAdaptive's thresholds
// are not configured here: Install copies them from the kernel's Tunables
// (ReplicateThreshold, MigrateThreshold).
type Config struct {
	Policy Policy
	// Lazy parks remote-socket replica invalidations on the LATR sweep
	// machinery instead of storing eagerly. Requires a lazy-capable
	// coherence policy (one whose sweeps call kernel.ReplSweepApply and
	// whose frame frees are fenced by kernel.ReplComplete); under any
	// other policy the configuration degrades to eager updates.
	Lazy bool
	// Mutation enables a deliberate defect (tests only).
	Mutation Mutation
}

// Validate rejects meaningless configurations.
func (c Config) Validate() error {
	switch c.Policy {
	case PolicyNone, PolicyAll, PolicyAdaptive:
	default:
		return fmt.Errorf("ptrepl: unknown policy %q", c.Policy)
	}
	if c.Policy == PolicyNone && c.Lazy {
		return fmt.Errorf("ptrepl: Lazy requires replicas (policy %q has none)", c.Policy)
	}
	switch c.Mutation {
	case "", MutSkipReplica, MutLeakReplica:
	default:
		return fmt.Errorf("ptrepl: unknown mutation %q", c.Mutation)
	}
	return nil
}

// ModeNames lists the litmus/experiment mode names ModeByName accepts.
func ModeNames() []string {
	return []string{"none", "replicate-all", "adaptive", "replicate-all-lazy", "adaptive-lazy"}
}

// ModeByName resolves a compact mode name (the litmus `repl` directive and
// experiment row vocabulary) to a Config.
func ModeByName(name string) (Config, error) {
	switch name {
	case "none":
		return Config{Policy: PolicyNone}, nil
	case "replicate-all":
		return Config{Policy: PolicyAll}, nil
	case "adaptive":
		return Config{Policy: PolicyAdaptive}, nil
	case "replicate-all-lazy":
		return Config{Policy: PolicyAll, Lazy: true}, nil
	case "adaptive-lazy":
		return Config{Policy: PolicyAdaptive, Lazy: true}, nil
	}
	return Config{}, fmt.Errorf("ptrepl: unknown mode %q (want one of %v)", name, ModeNames())
}

// replica is one socket's copy of an address space's page-table pages,
// represented as its divergence from the master: stale maps VPNs whose
// invalidation this replica has not yet absorbed to the translation it
// still serves. An empty map means the replica is coherent.
type replica struct {
	stale map[pt.VPN]pt.Entry
}

// mmState is the per-address-space replication state.
type mmState struct {
	// master is the socket holding the authoritative table (first-touch
	// placement, like Linux page-table allocation).
	master int
	// replicas[socket] is nil where no replica exists (always nil at the
	// master socket).
	replicas []*replica
	// remoteWalks and updates drive the adaptive policy's
	// replicate-on-remote-walk and migrate-on-writer-locality decisions.
	remoteWalks []int
	updates     []int
}

// Manager implements kernel.ReplHandler. Install it with Install; it
// ignores guest address spaces (guest page tables live in guest-physical
// memory whose placement the EPT layer owns).
type Manager struct {
	k   *kernel.Kernel
	cfg Config
	// replicateThreshold and migrateThreshold are PolicyAdaptive's
	// triggers, copied from Kernel.Tunables at Install.
	replicateThreshold, migrateThreshold int
	// lazy is the effective maintenance mode: Config.Lazy gated on the
	// installed coherence policy advertising LazyReplicaSweeps.
	lazy bool
	mms  map[*kernel.MM]*mmState
	met  ptreplMetrics
}

// ptreplMetrics holds the manager's metric handles, named in Install.
type ptreplMetrics struct {
	lazyDegraded, replicasCreated, walks, remoteWalks, staleServes metrics.Counter
	updates, lazyParked, migrations, lazyApplied, forceApplied     metrics.Counter
	leakedReplicas, staleLeaked                                    metrics.Counter

	replicas, stale metrics.Gauge

	walk metrics.Hist
}

func newPtreplMetrics(r *metrics.Registry) ptreplMetrics {
	return ptreplMetrics{
		lazyDegraded:    r.NewCounter("ptrepl.lazy_degraded"),
		replicasCreated: r.NewCounter("ptrepl.replicas_created"),
		walks:           r.NewCounter("ptrepl.walks"),
		remoteWalks:     r.NewCounter("ptrepl.remote_walks"),
		staleServes:     r.NewCounter("ptrepl.stale_serves"),
		updates:         r.NewCounter("ptrepl.updates"),
		lazyParked:      r.NewCounter("ptrepl.lazy_parked"),
		migrations:      r.NewCounter("ptrepl.migrations"),
		lazyApplied:     r.NewCounter("ptrepl.lazy_applied"),
		forceApplied:    r.NewCounter("ptrepl.force_applied"),
		leakedReplicas:  r.NewCounter("ptrepl.leaked_replicas"),
		staleLeaked:     r.NewCounter("ptrepl.stale_leaked"),
		replicas:        r.NewGauge("ptrepl.replicas"),
		stale:           r.NewGauge("ptrepl.stale"),
		walk:            r.NewHist("ptrepl.walk"),
	}
}

var _ kernel.ReplHandler = (*Manager)(nil)

// lazyDriver is the marker a coherence policy implements when its sweep
// and reclaim machinery drives parked replica invalidations (LATR).
type lazyDriver interface{ LazyReplicaSweeps() bool }

// Install validates cfg, builds a Manager with the adaptive thresholds of
// k.Tunables and registers it with k. When
// cfg.Lazy is set under a policy that cannot drive the parked
// invalidations, the manager degrades to eager updates (recorded in the
// ptrepl.lazy_degraded counter) — parked state under such a policy would
// never drain.
func Install(k *kernel.Kernel, cfg Config) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Manager{
		k:                  k,
		cfg:                cfg,
		replicateThreshold: k.Tunables.ReplicateThreshold,
		migrateThreshold:   k.Tunables.MigrateThreshold,
		mms:                make(map[*kernel.MM]*mmState),
		met:                newPtreplMetrics(k.Metrics),
	}
	if cfg.Lazy {
		if ld, ok := k.Policy().(lazyDriver); ok && ld.LazyReplicaSweeps() {
			m.lazy = true
		} else {
			m.met.lazyDegraded.Inc()
		}
	}
	k.SetReplHandler(m)
	return m, nil
}

// Config returns the validated configuration.
func (m *Manager) Config() Config { return m.cfg }

// LazyEffective reports whether parked (lazy) replica maintenance is
// actually in force (Config.Lazy under a lazy-capable policy).
func (m *Manager) LazyEffective() bool { return m.lazy }

// getState returns mm's replication state, creating it on first contact
// with the calling socket as master (first-touch table placement). The
// returned cost covers up-front replication under PolicyAll.
func (m *Manager) getState(mm *kernel.MM, sock int) (*mmState, sim.Time) {
	if s, ok := m.mms[mm]; ok {
		return s, 0
	}
	n := m.k.Spec.Sockets
	s := &mmState{
		master:      sock,
		replicas:    make([]*replica, n),
		remoteWalks: make([]int, n),
		updates:     make([]int, n),
	}
	m.mms[mm] = s
	var cost sim.Time
	if m.cfg.Policy == PolicyAll {
		for r := 0; r < n; r++ {
			if r != sock {
				cost += m.createReplica(mm, s, r)
			}
		}
	}
	return s, cost
}

// createReplica materialises a coherent replica on socket r, charging the
// table-copy cost for the master's current shape.
func (m *Manager) createReplica(mm *kernel.MM, s *mmState, r int) sim.Time {
	s.replicas[r] = &replica{stale: make(map[pt.VPN]pt.Entry)}
	s.remoteWalks[r] = 0
	m.met.replicasCreated.Inc()
	m.met.replicas.Add(1)
	return sim.Time(mm.PT.Tables()) * m.k.Cost.ReplTableCopy
}

// dropReplica frees socket r's replica (master migration, exit teardown),
// discarding any still-parked overrides.
func (m *Manager) dropReplica(s *mmState, r int) {
	rep := s.replicas[r]
	if rep == nil {
		return
	}
	if n := len(rep.stale); n > 0 {
		m.met.stale.Add(-int64(n))
	}
	s.replicas[r] = nil
	m.met.replicas.Add(-1)
}

// skipSock is the socket whose replica the skip-one-replica mutation
// starves: the highest-index socket holding one (deterministic).
func (m *Manager) skipSock(s *mmState) int {
	for r := len(s.replicas) - 1; r >= 0; r-- {
		if s.replicas[r] != nil {
			return r
		}
	}
	return -1
}

// park records one lost/deferred invalidation as a stale override.
func (m *Manager) park(rep *replica, vpn pt.VPN, old pt.Entry) {
	if _, ok := rep.stale[vpn]; !ok {
		m.met.stale.Add(1)
	}
	rep.stale[vpn] = old
}

// applyRange drains parked overrides for [start, start+pages) from rep,
// returning how many were applied.
func (m *Manager) applyRange(rep *replica, start pt.VPN, pages int) int {
	n := 0
	end := start + pt.VPN(pages)
	if pages > len(rep.stale) {
		for vpn := range rep.stale {
			if vpn >= start && vpn < end {
				delete(rep.stale, vpn)
				n++
			}
		}
	} else {
		for vpn := start; vpn < end; vpn++ {
			if _, ok := rep.stale[vpn]; ok {
				delete(rep.stale, vpn)
				n++
			}
		}
	}
	if n > 0 {
		m.met.stale.Add(-int64(n))
	}
	return n
}

// WalkCost implements kernel.ReplHandler: route the walk to the local
// replica/master or charge the remote-master penalty, feeding the
// adaptive replicate-on-remote-walk counter.
func (m *Manager) WalkCost(c *kernel.Core, mm *kernel.MM, vpn pt.VPN) sim.Time {
	k := m.k
	if mm.VM != nil {
		return k.Cost.PTWalk
	}
	sock := k.Spec.SocketOf(c.ID)
	s, cost := m.getState(mm, sock)
	walk := k.Cost.PTWalk
	m.met.walks.Inc()
	if sock != s.master && s.replicas[sock] == nil {
		walk += k.Cost.ReplWalkRemote[k.Spec.SocketHops(sock, s.master)]
		m.met.remoteWalks.Inc()
		if m.cfg.Policy == PolicyAdaptive {
			s.remoteWalks[sock]++
			if s.remoteWalks[sock] >= m.replicateThreshold {
				cost += m.createReplica(mm, s, sock)
			}
		}
	}
	m.met.walk.Observe(walk)
	return cost + walk
}

// StaleWalk implements kernel.ReplHandler: serve a failed master walk
// from a parked override on the calling socket's replica.
func (m *Manager) StaleWalk(c *kernel.Core, mm *kernel.MM, vpn pt.VPN, write bool) (pt.Entry, bool) {
	if mm.VM != nil {
		return pt.Entry{}, false
	}
	s, ok := m.mms[mm]
	if !ok {
		return pt.Entry{}, false
	}
	rep := s.replicas[m.k.Spec.SocketOf(c.ID)]
	if rep == nil {
		return pt.Entry{}, false
	}
	e, ok := rep.stale[vpn]
	if !ok || (write && !e.Writable) {
		return pt.Entry{}, false
	}
	m.met.staleServes.Inc()
	return e, true
}

// Unmap implements kernel.ReplHandler: propagate one cleared PTE to every
// replica — eager remote stores, or parked overrides under lazy
// maintenance (the initiator's own socket is always updated eagerly; a
// local store costs nothing extra to defer).
func (m *Manager) Unmap(c *kernel.Core, mm *kernel.MM, vpn pt.VPN, old pt.Entry) sim.Time {
	k := m.k
	if mm.VM != nil || !old.Present {
		return 0
	}
	sock := k.Spec.SocketOf(c.ID)
	s, cost := m.getState(mm, sock)
	for r, rep := range s.replicas {
		if rep == nil {
			continue
		}
		if r == sock {
			delete(rep.stale, vpn)
			cost += k.Cost.ReplPTEStore[0]
			m.met.updates.Inc()
			continue
		}
		if m.cfg.Mutation == MutSkipReplica && r == m.skipSock(s) {
			// The lost store: this replica keeps serving the dead
			// translation, and nothing will ever apply the override.
			m.park(rep, vpn, old)
			continue
		}
		if m.lazy {
			m.park(rep, vpn, old)
			cost += k.Cost.ReplLazyPark
			m.met.lazyParked.Inc()
		} else {
			cost += k.Cost.ReplPTEStore[k.Spec.SocketHops(sock, r)]
			m.met.updates.Inc()
		}
	}
	return cost
}

// Update implements kernel.ReplHandler: eager propagation of installs and
// permission changes (Table 1: only frees may be lazy). New mappings
// supersede any overrides still parked for the range — VA reuse after an
// madvise must not resurrect the old translation.
func (m *Manager) Update(c *kernel.Core, mm *kernel.MM, start pt.VPN, pages int) sim.Time {
	k := m.k
	if mm.VM != nil || pages <= 0 {
		return 0
	}
	sock := k.Spec.SocketOf(c.ID)
	s, cost := m.getState(mm, sock)
	for r, rep := range s.replicas {
		if rep == nil {
			continue
		}
		m.applyRange(rep, start, pages)
		cost += sim.Time(pages) * k.Cost.ReplPTEStore[k.Spec.SocketHops(sock, r)]
		m.met.updates.Add(uint64(pages))
	}
	if m.cfg.Policy == PolicyAdaptive {
		s.updates[sock] += pages
		if sock != s.master && s.updates[sock] >= m.migrateThreshold && s.updates[sock] > s.updates[s.master] {
			cost += m.migrateMaster(mm, s, sock)
		}
	}
	return cost
}

// migrateMaster moves the authoritative table to the dominant writer
// socket (numaPTE's migrate-on-writer-locality): the old master's pages
// stay behind as that socket's replica, the new master's replica (if any)
// is subsumed by the authoritative copy.
func (m *Manager) migrateMaster(mm *kernel.MM, s *mmState, to int) sim.Time {
	old := s.master
	m.dropReplica(s, to)
	s.master = to
	cost := sim.Time(mm.PT.Tables()) * m.k.Cost.ReplTableCopy
	cost += m.createReplica(mm, s, old)
	for i := range s.updates {
		s.updates[i] = 0
		s.remoteWalks[i] = 0
	}
	m.met.migrations.Inc()
	return cost
}

// SweepApply implements kernel.ReplHandler: a LATR sweep on core c
// applies the overrides parked for c's socket against the swept range.
func (m *Manager) SweepApply(c *kernel.Core, mm *kernel.MM, start pt.VPN, pages int) sim.Time {
	s, ok := m.mms[mm]
	if !ok {
		return 0
	}
	sock := m.k.Spec.SocketOf(c.ID)
	if m.cfg.Mutation == MutSkipReplica && sock == m.skipSock(s) {
		return 0
	}
	rep := s.replicas[sock]
	if rep == nil {
		return 0
	}
	n := m.applyRange(rep, start, pages)
	if n == 0 {
		return 0
	}
	m.met.lazyApplied.Add(uint64(n))
	return sim.Time(n) * m.k.Cost.ReplLazyApply
}

// ForceApply implements kernel.ReplHandler: drain every replica's parked
// overrides for the range (state completion, sync fallback, reclaim — the
// frame-free fence).
func (m *Manager) ForceApply(mm *kernel.MM, start pt.VPN, pages int) {
	s, ok := m.mms[mm]
	if !ok {
		return
	}
	skip := -1
	if m.cfg.Mutation == MutSkipReplica {
		skip = m.skipSock(s)
	}
	for r, rep := range s.replicas {
		if rep == nil || r == skip {
			continue
		}
		if n := m.applyRange(rep, start, pages); n > 0 {
			m.met.forceApplied.Add(uint64(n))
		}
	}
}

// OnMMExit implements kernel.ReplHandler: tear down mm's replicas. The
// leak-replica mutation skips the teardown (the ptrepl.replicas gauge
// stays up — the litmus end-of-run check); the skip-one-replica mutation
// surfaces its never-applied overrides in ptrepl.stale_leaked.
func (m *Manager) OnMMExit(mm *kernel.MM) {
	s, ok := m.mms[mm]
	if !ok {
		return
	}
	if m.cfg.Mutation == MutLeakReplica {
		for _, rep := range s.replicas {
			if rep != nil {
				m.met.leakedReplicas.Inc()
			}
		}
		return
	}
	skip := -1
	if m.cfg.Mutation == MutSkipReplica {
		skip = m.skipSock(s)
	}
	for r, rep := range s.replicas {
		if rep == nil {
			continue
		}
		if r == skip {
			if n := len(rep.stale); n > 0 {
				m.met.staleLeaked.Add(uint64(n))
			}
		}
		m.dropReplica(s, r)
	}
	delete(m.mms, mm)
}

// Snapshot implements kernel.ReplHandler.
func (m *Manager) Snapshot(mm *kernel.MM) (replicas, stale int) {
	s, ok := m.mms[mm]
	if !ok {
		return 0, 0
	}
	for _, rep := range s.replicas {
		if rep != nil {
			replicas++
			stale += len(rep.stale)
		}
	}
	return replicas, stale
}

// Master reports mm's current master socket (tests), or -1 before first
// contact.
func (m *Manager) Master(mm *kernel.MM) int {
	if s, ok := m.mms[mm]; ok {
		return s.master
	}
	return -1
}

// String describes the manager configuration.
func (m *Manager) String() string {
	maint := "eager"
	if m.lazy {
		maint = "lazy"
	}
	return fmt.Sprintf("ptrepl(%s, %s)", m.cfg.Policy, maint)
}
