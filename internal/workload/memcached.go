package workload

import (
	"latr/internal/kernel"
	"latr/internal/metrics"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/topo"
)

// MemcachedConfig models the §6.2 Infiniswap case study's client: a
// memcached-style KV server whose slab arena is larger than local memory,
// so cold GETs major-fault and swap in from the remote-memory backend
// while the swapper concurrently evicts cold slabs. The paper's headline
// number — LATR cuts memcached's p99 by ~70% under Infiniswap — comes from
// exactly this mix: most requests hit the resident hot set, and the tail
// is set by fault-path requests serialized behind evictions holding the mm
// write semaphore (shootdown + RDMA write under Linux, write only under
// LATR).
type MemcachedConfig struct {
	// Cores run one server worker thread each; all workers share one
	// process (one mm), as memcached's pthread workers do.
	Cores []topo.CoreID
	// Keys is the keyspace size; each value occupies ValuePages pages of
	// the slab arena.
	Keys       int
	ValuePages int
	// HotKeys is the size of the popular prefix of the keyspace;
	// HotTrafficPct percent of requests go there. The hot set must fit in
	// local memory or nothing is "memcached-like" about the run.
	HotKeys       int
	HotTrafficPct int
	// SetPct percent of requests are SETs (write touches); the rest GETs.
	SetPct int
	// Think is the per-request CPU cost (parse, hash, respond).
	Think sim.Time
	// Seed drives the per-worker key-choice streams.
	Seed uint64
}

// DefaultMemcachedConfig returns the case-study shape for the given
// worker cores: a 4K-key arena at one page per value, a 20% hot set taking
// 90% of traffic, 10% SETs.
func DefaultMemcachedConfig(cores []topo.CoreID) MemcachedConfig {
	return MemcachedConfig{
		Cores:         cores,
		Keys:          4096,
		ValuePages:    1,
		HotKeys:       800,
		HotTrafficPct: 90,
		SetPct:        10,
		Think:         10 * sim.Microsecond,
		Seed:          1,
	}
}

// Memcached is the workload instance.
type Memcached struct {
	cfg      MemcachedConfig
	k        *kernel.Kernel
	proc     *kernel.Process
	arena    *Arena
	requests uint64
	met      struct {
		requests metrics.Counter
		latency  metrics.Perc
	}
}

// NewMemcached returns a memcached workload.
func NewMemcached(cfg MemcachedConfig) *Memcached {
	if len(cfg.Cores) == 0 || cfg.Keys < 1 || cfg.ValuePages < 1 ||
		cfg.HotKeys < 1 || cfg.HotKeys > cfg.Keys ||
		cfg.HotTrafficPct < 0 || cfg.HotTrafficPct > 100 ||
		cfg.SetPct < 0 || cfg.SetPct > 100 {
		panic("workload: invalid memcached config")
	}
	return &Memcached{cfg: cfg}
}

// Setup creates the server process: a loader thread that maps and warms
// the slab arena (LoadArena), then the worker threads, which wait at the
// loader's gate.
func (m *Memcached) Setup(k *kernel.Kernel) {
	m.k = k
	m.met.requests = k.Metrics.NewCounter("app.requests")
	m.met.latency = k.Metrics.NewPerc("app.req_latency")
	gate := NewGate(k)
	m.proc = k.NewProcess()
	m.arena = LoadArena(m.proc, m.cfg.Cores[0], m.ArenaPages(), gate)
	for i, core := range m.cfg.Cores {
		m.spawnWorker(core, gate, uint64(i))
	}
}

// Arena is a KV server's slab arena, mapped and warmed by LoadArena.
type Arena struct {
	// Base is the arena's first page, set when its mmap returns.
	Base pt.VPN
	// Loaded reports whether the warm-up finished and the gate opened.
	Loaded bool
}

// LoadArena spawns p's loader thread on core. It maps a pages-page arena
// and write-touches it end to end in 128-page chunks, filling memory past
// the swapper's watermark like a KV server reaching its configured cache
// size. It then marks the arena loaded, opens gate for the worker threads
// and exits.
func LoadArena(p *kernel.Process, core topo.CoreID, pages int, gate *Gate) *Arena {
	a := &Arena{}
	warmed := 0
	const warmChunk = 128
	step := 0
	p.Spawn(core, kernel.Loop(func(th *kernel.Thread) kernel.Op {
		switch step {
		case 0:
			step = 1
			return kernel.Mmap(pages, true)
		case 1:
			a.Base = th.LastAddr
			step = 2
			fallthrough
		case 2:
			if warmed < pages {
				n := min(pages-warmed, warmChunk)
				op := kernel.TouchRange(a.Base+pt.VPN(warmed), n, true)
				warmed += n
				return op
			}
			a.Loaded = true
			gate.Open()
			step = 3
			fallthrough
		default:
			return kernel.Op{}
		}
	}))
	return a
}

func (m *Memcached) spawnWorker(core topo.CoreID, gate *Gate, id uint64) {
	cfg := m.cfg
	rng := sim.NewRand(cfg.Seed<<8 ^ id ^ 0x9e3779b9)
	var t0 sim.Time
	started := false
	step := 0
	var vpn pt.VPN
	write := false
	m.proc.Spawn(core, kernel.Loop(func(th *kernel.Thread) kernel.Op {
		switch step {
		case 0:
			step = 1
			return gate.Wait()
		case 1:
			now := m.k.Now()
			if started {
				m.requests++
				m.met.requests.Inc()
				m.met.latency.Observe(now - t0)
			}
			started = true
			t0 = now
			var key int
			if rng.Intn(100) < cfg.HotTrafficPct {
				key = rng.Intn(cfg.HotKeys)
			} else {
				key = cfg.HotKeys + rng.Intn(cfg.Keys-cfg.HotKeys)
			}
			vpn = m.arena.Base + pt.VPN(key*cfg.ValuePages)
			write = rng.Intn(100) < cfg.SetPct
			step = 2
			return kernel.Compute(cfg.Think / 2)
		case 2: // the value access: hot keys TLB-hit, cold keys major-fault
			step = 3
			return kernel.TouchRange(vpn, cfg.ValuePages, write)
		case 3:
			step = 1
			return kernel.Compute(cfg.Think - cfg.Think/2)
		default:
			panic("unreachable")
		}
	}))
}

// Proc returns the server process (the swapper must Register it).
func (m *Memcached) Proc() *kernel.Process { return m.proc }

// Requests reports completed requests.
func (m *Memcached) Requests() uint64 { return m.requests }

// Loaded reports whether the warm-up phase finished (for tests).
func (m *Memcached) Loaded() bool { return m.arena.Loaded }

// Done always reports false: the server runs until the experiment
// deadline.
func (m *Memcached) Done() bool { return false }

// Latency returns the request-latency percentile histogram.
func (m *Memcached) Latency() *metrics.PercentileHist { return m.k.Metrics.Perc("app.req_latency") }

// ArenaPages reports the slab arena size in pages.
func (m *Memcached) ArenaPages() int { return m.cfg.Keys * m.cfg.ValuePages }
