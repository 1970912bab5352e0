// Package numa implements AutoNUMA page migration (§2.1, §4.3): a
// background task periodically unmaps sampled pages via the coherence
// policy's NUMAUnmap (synchronously under Linux, lazily under LATR); the
// resulting hint faults drive the two-access migration criterion; pages
// predominantly accessed from a remote node migrate there.
package numa

import (
	"latr/internal/kernel"
	"latr/internal/metrics"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/topo"
)

// MigrationGater is implemented by lazy policies (LATR) whose migration
// unmap completes asynchronously: a hint fault may only proceed to migrate
// once every core has invalidated (§4.4).
type MigrationGater interface {
	GateMigration(mm *kernel.MM, vpn pt.VPN, cont func()) bool
}

// Config tunes AutoNUMA.
type Config struct {
	// ScanPeriod is the interval between scan passes (Linux defaults to
	// hundreds of ms; the simulation default is 10 ms so experiments reach
	// steady state quickly).
	ScanPeriod sim.Time
	// PagesPerScan bounds pages sampled per process per pass.
	PagesPerScan int
}

const (
	// migrateThreshold is the number of faults from the same remote node
	// that trigger a migration ("accessed twice" in §2.1).
	migrateThreshold = 2
	// runPages caps the contiguous range handed to one NUMAUnmap call
	// (change_prot_numa works in bounded chunks; this is what makes the
	// per-migration shootdown share 5.8-21.1% under Linux — §2.1).
	runPages = 16
	// scanCore hosts the background scan task.
	scanCore topo.CoreID = 0
)

// DefaultConfig returns the simulation defaults.
func DefaultConfig() Config {
	return Config{
		ScanPeriod:   10 * sim.Millisecond,
		PagesPerScan: 128,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.ScanPeriod == 0 {
		c.ScanPeriod = d.ScanPeriod
	}
	if c.PagesPerScan == 0 {
		c.PagesPerScan = d.PagesPerScan
	}
	return c
}

type pageStat struct {
	lastNode topo.NodeID
	count    int
}

// AutoNUMA is the balancer instance. Install it once per kernel.
type AutoNUMA struct {
	k   *kernel.Kernel
	cfg Config

	procs  []*kernel.Process
	cursor map[*kernel.MM]pt.VPN
	stats  map[*kernel.MM]map[pt.VPN]pageStat
	// idle holds the repair records no hint fault is using. A record cannot
	// belong to a core: a thread that waits for mmap_sem blocks, and its
	// core may run another thread into a hint fault of its own.
	idle []*repairRecord

	met struct {
		scanPasses, pagesSampled, hintFaults, localRepair metrics.Counter
		belowThreshold, migrateOOM, migrations            metrics.Counter
	}
}

// New builds an AutoNUMA instance (zero cfg fields take defaults).
func New(cfg Config) *AutoNUMA {
	return &AutoNUMA{
		cfg:    cfg.withDefaults(),
		cursor: make(map[*kernel.MM]pt.VPN),
		stats:  make(map[*kernel.MM]map[pt.VPN]pageStat),
	}
}

// Install registers the fault handler and starts the scan task on
// scanCore, hosted by a dedicated kernel process.
func (a *AutoNUMA) Install(k *kernel.Kernel) {
	a.k = k
	r := k.Metrics
	a.met.scanPasses = r.NewCounter("numa.scan_passes")
	a.met.pagesSampled = r.NewCounter("numa.pages_sampled")
	a.met.hintFaults = r.NewCounter("numa.hint_faults")
	a.met.localRepair = r.NewCounter("numa.local_repair")
	a.met.belowThreshold = r.NewCounter("numa.below_threshold")
	a.met.migrateOOM = r.NewCounter("numa.migrate_oom")
	a.met.migrations = r.NewCounter("numa.migrations")
	k.SetNUMAHandler(a)
	host := k.NewProcess()
	sleep := true
	host.SpawnKernel(scanCore, kernel.Loop(func(*kernel.Thread) kernel.Op {
		if sleep {
			sleep = false
			return kernel.Sleep(a.cfg.ScanPeriod)
		}
		sleep = true
		return kernel.Call(a.scan)
	}))
}

// Register adds a process to the scan set (idempotent).
func (a *AutoNUMA) Register(p *kernel.Process) {
	for _, q := range a.procs {
		if q == p {
			return
		}
	}
	a.procs = append(a.procs, p)
}

// scan samples up to PagesPerScan mapped, unhinted pages per process and
// hands contiguous runs to the policy's NUMAUnmap.
func (a *AutoNUMA) scan(c *kernel.Core, th *kernel.Thread, done func()) {
	type run struct {
		mm    *kernel.MM
		start pt.VPN
		pages int
	}
	var runs []run
	for _, p := range a.procs {
		mm := p.MM
		budget := a.cfg.PagesPerScan
		vmas := mm.Space.VMAs()
		if len(vmas) == 0 {
			continue
		}
		cur := a.cursor[mm]
		var cand []pt.VPN
		for _, v := range vmas {
			if budget <= 0 {
				break
			}
			for vpn := v.Start; vpn < v.End && budget > 0; vpn++ {
				if vpn < cur {
					continue
				}
				if e, ok := mm.PT.Get(vpn); ok && !e.NUMAHint {
					cand = append(cand, vpn)
					budget--
				}
			}
		}
		if len(cand) == 0 {
			a.cursor[mm] = 0 // wrap
			continue
		}
		a.cursor[mm] = cand[len(cand)-1] + 1
		// Coalesce candidates into contiguous runs, bounded by runPages.
		start, n := cand[0], 1
		for _, vpn := range cand[1:] {
			if vpn == start+pt.VPN(n) && n < runPages {
				n++
				continue
			}
			runs = append(runs, run{mm, start, n})
			start, n = vpn, 1
		}
		runs = append(runs, run{mm, start, n})
	}
	if len(runs) == 0 {
		done()
		return
	}
	a.met.scanPasses.Inc()
	a.met.pagesSampled.Add(uint64(func() int {
		n := 0
		for _, r := range runs {
			n += r.pages
		}
		return n
	}()))

	// Unmap each run via the policy, sequentially, holding each mm's
	// mmap_sem shared for the duration of its run (task_numa_work and
	// change_prot_numa run under the read side; the PTE updates are
	// protected by page-table locks, which the cost model folds in).
	var next func(i int)
	next = func(i int) {
		if i >= len(runs) {
			done()
			return
		}
		r := runs[i]
		r.mm.Sem.AcquireRead(c, th, func() {
			a.k.NUMAUnmap(c, r.mm, r.start, r.pages, func() {
				r.mm.Sem.ReleaseRead()
				next(i + 1)
			})
		})
	}
	next(0)
}

// OnHintFault implements kernel.NUMAHandler. The migration decision is
// made first; only faults that will actually migrate gate on the lazy
// policy's sweep completion (§4.4 — parallel writes must be impossible
// *during migration*; hint repairs change nothing and proceed at once).
func (a *AutoNUMA) OnHintFault(c *kernel.Core, th *kernel.Thread, vpn pt.VPN, cont func()) {
	mm := th.Proc.MM
	k := a.k
	a.met.hintFaults.Inc()

	e, ok := mm.PT.Get(vpn)
	if !ok || !e.NUMAHint {
		// Raced with another fault that already repaired the page.
		cont()
		return
	}
	myNode := k.Spec.NodeOf(c.ID)
	pageNode := k.Alloc.NodeOf(e.PFN)

	perMM := a.stats[mm]
	if perMM == nil {
		perMM = make(map[pt.VPN]pageStat)
		a.stats[mm] = perMM
	}
	// A page seen for the first time reads as the zero pageStat, which
	// the remote path below turns into one fault from myNode.
	st := perMM[vpn]
	if myNode == pageNode {
		// Local access: repair the hint, no migration (the shootdown cost
		// was wasted — Linux's Fig 3a overhead; LATR avoided it).
		delete(perMM, vpn)
		a.met.localRepair.Inc()
		a.repair(c, th, mm, vpn, cont)
		return
	}
	if st.lastNode != myNode {
		st.lastNode = myNode
		st.count = 1
	} else {
		st.count++
	}
	if st.count < migrateThreshold {
		perMM[vpn] = st
		a.met.belowThreshold.Inc()
		a.repair(c, th, mm, vpn, cont)
		return
	}
	delete(perMM, vpn)

	// Migration path: under a lazy policy, wait until every core has
	// invalidated the sampled translation before moving the page (§4.4).
	if g, ok := k.Policy().(MigrationGater); ok {
		if g.GateMigration(mm, vpn, func() { k.Wake(th) }) {
			c.Block(th, func() { a.migrate(c, th, mm, vpn, cont) })
			return
		}
	}
	a.migrate(c, th, mm, vpn, cont)
}

// migrate moves the page to the faulting core's node. Like
// migrate_misplaced_page, it runs under the shared mmap_sem (the page
// itself is exclusively held: the hint plus the §4.4 gate guarantee no
// other core can access it concurrently).
func (a *AutoNUMA) migrate(c *kernel.Core, th *kernel.Thread, mm *kernel.MM, vpn pt.VPN, cont func()) {
	k := a.k
	mm.Sem.AcquireRead(c, th, func() {
		e, ok := mm.PT.Get(vpn)
		if !ok || !e.NUMAHint {
			mm.Sem.ReleaseRead()
			cont()
			return
		}
		myNode := k.Spec.NodeOf(c.ID)
		newPFN, err := k.AllocFrame(myNode)
		if err != nil {
			a.met.migrateOOM.Inc()
			mm.PT.SetNUMAHint(vpn, false)
			c.TLB.Insert(c.PCIDOf(mm), vpn, e.PFN, e.Writable)
			c.Busy(k.Cost.PTEClearPerPage, false, func() {
				mm.Sem.ReleaseRead()
				cont()
			})
			return
		}
		old, ok := mm.PT.Replace(vpn, newPFN)
		if !ok {
			panic("numa: hinted page vanished under mmap_sem")
		}
		cost := k.Cost.PageCopy + k.Cost.MigrationBookkeeping + k.ReplUpdateRange(c, mm, vpn, 1)
		c.Busy(cost, false, func() {
			k.Alloc.Put(old.PFN)
			c.TLB.Insert(c.PCIDOf(mm), vpn, newPFN, old.Writable)
			mm.Sem.ReleaseRead()
			a.met.migrations.Inc()
			// Note boxes its arguments even into a collector that keeps no
			// timeline, so skip the call when there is none.
			if k.Opts.TraceLimit > 0 {
				k.Spans.Note(k.Now(), c.ID, "numa", "migrated %#x node%d", uint64(vpn.Addr()), myNode)
			}
			cont()
		})
	})
}

// repairRecord is one hint-fault repair from its mmap_sem request to its
// continuation, with the grant and the Busy completion bound once.
type repairRecord struct {
	a                 *AutoNUMA
	c                 *kernel.Core
	mm                *kernel.MM
	vpn               pt.VPN
	cont              func()
	grantedFn, doneFn func()
}

// repair clears the hint and refills the TLB without migrating, under the
// shared mmap_sem (the PTE flip is page-table-lock work).
func (a *AutoNUMA) repair(c *kernel.Core, th *kernel.Thread, mm *kernel.MM, vpn pt.VPN, cont func()) {
	var r *repairRecord
	if n := len(a.idle) - 1; n >= 0 {
		r = a.idle[n]
		a.idle = a.idle[:n]
	} else {
		r = &repairRecord{a: a}
		r.grantedFn, r.doneFn = r.granted, r.done
	}
	r.c, r.mm, r.vpn, r.cont = c, mm, vpn, cont
	mm.Sem.AcquireRead(c, th, r.grantedFn)
}

// granted runs with mmap_sem held: the hint flip and the TLB refill.
func (r *repairRecord) granted() {
	c, mm, vpn := r.c, r.mm, r.vpn
	if e, ok := mm.PT.Get(vpn); ok && e.NUMAHint {
		mm.PT.SetNUMAHint(vpn, false)
		c.TLB.Insert(c.PCIDOf(mm), vpn, e.PFN, e.Writable)
	}
	c.Busy(r.a.k.Cost.PTEClearPerPage, false, r.doneFn)
}

// done ends the repair. The record goes back to the idle list before the
// continuation runs, which may start another repair.
func (r *repairRecord) done() {
	mm, cont := r.mm, r.cont
	r.c, r.mm, r.cont = nil, nil, nil
	r.a.idle = append(r.a.idle, r)
	mm.Sem.ReleaseRead()
	cont()
}
