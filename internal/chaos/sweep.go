package chaos

import (
	"fmt"

	"latr/internal/core"
	"latr/internal/cost"
	"latr/internal/kernel"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/tlb"
	"latr/internal/topo"
)

// RunConfig describes one chaos run: a seed (driving the fault schedule,
// the kernel's randomness and the workload), a fault profile, and the
// machine/mechanism shape.
type RunConfig struct {
	Seed    uint64
	Profile Profile

	// Sockets/CoresPerSocket shape the machine (default 2x4).
	Sockets        int
	CoresPerSocket int

	// Duration bounds the workload's virtual time (default 60 ms). The
	// run stops at 4x Duration, and threads still live then count as
	// deadlocked.
	Duration sim.Time
}

// traceLimit bounds the trace used for the determinism digest.
const traceLimit = 20000

func (cfg RunConfig) withDefaults() RunConfig {
	if cfg.Sockets == 0 {
		cfg.Sockets = 2
	}
	if cfg.CoresPerSocket == 0 {
		cfg.CoresPerSocket = 4
	}
	if cfg.Duration == 0 {
		cfg.Duration = 60 * sim.Millisecond
	}
	return cfg
}

// Result is what one chaos run reports.
type Result struct {
	Seed    uint64
	Profile string

	// Violations are the auditor's findings (nil on a clean run).
	Violations []tlb.Violation
	// Report is the auditor's rendered findings — byte-identical across
	// replays of the same (seed, profile, config).
	Report string

	// Deadlocked is set when threads were still live at the hard
	// deadline: some continuation never ran.
	Deadlocked   bool
	LiveThreads  int
	FallbackIPIs uint64
	Faults       uint64

	// The determinism triple: trace digest, metrics fingerprint, engine
	// fingerprint. Two runs of the same RunConfig must agree on all
	// three.
	TraceDigest uint64
	MetricsFP   uint64
	EngineFP    uint64

	// Span-lifecycle accounting from the observability layer. A clean run
	// drains completely: every opened span closes exactly once, so
	// SpansOpen and SpanDoubleClose are zero and Opened == Closed.
	SpansOpen       int
	SpansOpened     uint64
	SpansClosed     uint64
	SpanDoubleClose uint64
	SpanIncomplete  uint64
}

// String summarises the run for logs.
func (r Result) String() string {
	status := "ok"
	if r.Deadlocked {
		status = fmt.Sprintf("DEADLOCK(%d live)", r.LiveThreads)
	}
	return fmt.Sprintf("chaos(seed=%d profile=%s): %s, %d violation(s), %d fault(s), %d fallback IPI(s)",
		r.Seed, r.Profile, status, len(r.Violations), r.Faults, r.FallbackIPIs)
}

// Run executes one seeded chaos run: a LATR kernel in audit mode, the
// profile's fault schedule, and a bursty mmap/touch/munmap workload with
// occasional migration states on every core. It is a pure function of
// cfg — same config, same Result, bit for bit.
func Run(cfg RunConfig) Result {
	cfg = cfg.withDefaults()
	spec := topo.Custom(cfg.Sockets, cfg.CoresPerSocket)
	spec.MemPerNodeBytes = 64 << 20

	k := kernel.New(spec, cost.Default(spec), core.New(core.Config{}), kernel.Options{
		Audit:      true,
		Seed:       cfg.Seed,
		TraceLimit: traceLimit,
		Tunables:   cfg.Profile.Tunables(),
	})
	inj := NewInjector(cfg.Seed, cfg.Profile)
	inj.Install(k)

	p := k.NewProcess()
	pool := &regionPool{}
	for c := 0; c < spec.NumCores(); c++ {
		// Odd cores churn mappings (munmap bursts, migration states); even
		// cores read through them with compute phases in between — readers
		// make few syscalls, so they context-switch (and therefore sweep)
		// rarely, which is what keeps their TLBs warm across another
		// core's munmap: the genuine §4.4 stale window.
		if c%2 == 1 {
			spawnChurn(k, p, pool, topo.CoreID(c), cfg.Seed, cfg.Duration)
		} else {
			spawnReader(k, p, pool, topo.CoreID(c), cfg.Seed, cfg.Duration)
		}
	}

	k.Run(4 * cfg.Duration)

	live := k.LiveThreads()
	return Result{
		Seed:         cfg.Seed,
		Profile:      cfg.Profile.Name,
		Violations:   k.Audit.Violations(),
		Report:       k.Audit.Render(),
		Deadlocked:   live > 0,
		LiveThreads:  live,
		FallbackIPIs: k.Metrics.Counter("latr.fallback_ipi"),
		Faults:       inj.Faults(),
		TraceDigest:  k.Spans.TraceDigest(),
		MetricsFP:    k.Metrics.Fingerprint(),
		EngineFP:     k.Engine.Fingerprint(),

		SpansOpen:       k.Spans.OpenSpans(),
		SpansOpened:     k.Metrics.Counter("span.opened"),
		SpansClosed:     k.Metrics.Counter("span.closed"),
		SpanDoubleClose: k.Metrics.Counter("span.double_close"),
		SpanIncomplete:  k.Metrics.Counter("span.incomplete"),
	}
}

// region is one mapped range in the shared pool.
type region struct {
	base  pt.VPN
	pages int
}

// regionPool is the workload's shared mapping table. Every core maps into
// it and touches — and unmaps — regions mapped by any core, which is what
// creates genuine cross-core stale-TLB windows: core A warms its TLB on a
// region, core B munmaps it, A's next touch walks the stale entry. All
// access happens inside the single-threaded event loop, so sharing costs
// no determinism.
type regionPool struct {
	held []region
	// freed remembers the last few unmapped regions, spanning the whole
	// lazy window and beyond: re-touching them is what walks stale TLB
	// entries early in the window and segfaults late in it.
	freed []region
}

func (pl *regionPool) noteFreed(r region) {
	pl.freed = append(pl.freed, r)
	if len(pl.freed) > 16 {
		pl.freed = pl.freed[1:]
	}
}

// spawnChurn starts one core's workload: bursts of small mmaps into the
// shared pool, touches through any core's regions (re-touching freshly
// unmapped ones to walk the stale window), rapid munmap bursts that
// pressure the LATR queues, and occasional NUMAUnmap calls recording
// migration states. All randomness comes from a per-core stream derived
// from the run seed, drawn in op order, so the workload is as
// deterministic as the fault schedule.
func spawnChurn(k *kernel.Kernel, p *kernel.Process, pool *regionPool, id topo.CoreID, seed uint64, until sim.Time) {
	rng := sim.NewRand(seed*0x9e3779b97f4a7c15 + uint64(id) + 1)
	pendingPages := 0 // pages of an in-flight Mmap op to record next call
	drain := 0        // regions left in the current munmap burst
	mm := p.MM

	pop := func(i int) region {
		r := pool.held[i]
		pool.held = append(pool.held[:i], pool.held[i+1:]...)
		pool.noteFreed(r)
		return r
	}

	p.Spawn(id, kernel.Loop(func(th *kernel.Thread) kernel.Op {
		if pendingPages > 0 {
			if th.LastErr == nil {
				pool.held = append(pool.held, region{th.LastAddr, pendingPages})
			}
			pendingPages = 0
		}
		if k.Now() >= until {
			return kernel.Op{}
		}
		if drain > 0 && len(pool.held) > 0 {
			// Munmap burst: unmap back to back — the QueueDepth pressure,
			// and under the small-queue profile the fallback-IPI path.
			drain--
			r := pop(rng.Intn(len(pool.held)))
			return kernel.Munmap(r.base, r.pages)
		}
		drain = 0
		switch {
		case len(pool.held) < 6+rng.Intn(6):
			pendingPages = 1 + rng.Intn(4)
			return kernel.Mmap(pendingPages, true).Populate(-1)
		case rng.Intn(10) == 0:
			// Migration state: lazily unmap a held region's first page the
			// AutoNUMA way (deferred PTE clear, every core sweeps).
			r := pool.held[rng.Intn(len(pool.held))]
			return kernel.Call(func(c *kernel.Core, th *kernel.Thread, done func()) {
				k.NUMAUnmap(c, mm, r.base, 1, done)
			})
		case rng.Intn(3) > 0:
			// Touch a region any core mapped, or occasionally a recently
			// freed one (a segfault late in the lazy window — programs
			// observe it in LastFault, the run carries on).
			r := pool.held[rng.Intn(len(pool.held))]
			if len(pool.freed) > 0 && rng.Intn(4) == 0 {
				r = pool.freed[rng.Intn(len(pool.freed))]
			}
			return kernel.TouchRange(r.base, r.pages, rng.Intn(2) == 0)
		default:
			drain = 1 + rng.Intn(4)
			drain--
			r := pop(rng.Intn(len(pool.held)))
			return kernel.Munmap(r.base, r.pages)
		}
	}))
}

// spawnReader starts one core's read-mostly workload: warm the TLB on a
// pool region, compute a while (no syscalls, so no context-switch sweep),
// then re-touch it — deliberately without checking whether a churner
// unmapped it meanwhile. The re-touch is the §4.4 stale window: benign
// while the frame sits refcounted on the lazy lists, a segfault after
// legitimate reclaim, and a stale-use violation when chaos freed the
// frame out from under a still-active state.
func spawnReader(k *kernel.Kernel, p *kernel.Process, pool *regionPool, id topo.CoreID, seed uint64, until sim.Time) {
	rng := sim.NewRand(seed*0xd1342543de82ef95 + uint64(id) + 1)
	var r region
	phase := 0

	p.Spawn(id, kernel.Loop(func(th *kernel.Thread) kernel.Op {
		if k.Now() >= until {
			return kernel.Op{}
		}
		switch phase {
		case 0: // pick and warm
			if len(pool.held) == 0 {
				return kernel.Compute(50 * sim.Microsecond)
			}
			r = pool.held[rng.Intn(len(pool.held))]
			phase = 1
			return kernel.TouchRange(r.base, r.pages, false)
		case 1: // dwell
			phase = 2
			return kernel.Compute(rng.Duration(50*sim.Microsecond, 500*sim.Microsecond))
		default: // re-touch, possibly through a stale entry
			if rng.Intn(3) == 0 {
				phase = 0
			} else {
				phase = 1
			}
			return kernel.TouchRange(r.base, r.pages, rng.Intn(2) == 0)
		}
	}))
}
