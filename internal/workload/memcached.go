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
// LATR). The mix itself is the Memcached* constants.
type MemcachedConfig struct {
	// Cores run one server worker thread each; all workers share one
	// process (one mm), as memcached's pthread workers do.
	Cores []topo.CoreID
	// Seed drives the per-worker key-choice streams.
	Seed uint64
}

// The case study's request mix: a 4K-key arena at one page per value, a
// 20% hot set taking 90% of traffic, 10% SETs. internal/cluster serves
// the same mix on every node, over a hot set of its own.
const (
	// MemcachedKeys is the keyspace size; each value occupies
	// MemcachedValuePages pages of the slab arena.
	MemcachedKeys       = 4096
	MemcachedValuePages = 1
	// MemcachedHotTrafficPct percent of requests go to the popular prefix
	// of the keyspace, memcachedHotKeys keys. The hot set must fit in
	// local memory or nothing is "memcached-like" about the run.
	MemcachedHotTrafficPct = 90
	memcachedHotKeys       = 800
	// MemcachedSetPct percent of requests are SETs (write touches); the
	// rest are GETs.
	MemcachedSetPct = 10
	// MemcachedThink is the per-request CPU cost (parse, hash, respond).
	MemcachedThink = 10 * sim.Microsecond
)

// DefaultMemcachedConfig returns the case-study configuration for the
// given worker cores, at seed 1.
func DefaultMemcachedConfig(cores []topo.CoreID) MemcachedConfig {
	return MemcachedConfig{Cores: cores, Seed: 1}
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
	if len(cfg.Cores) == 0 {
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
	rng := sim.NewRand(m.cfg.Seed<<8 ^ id ^ 0x9e3779b9)
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
			if rng.Intn(100) < MemcachedHotTrafficPct {
				key = rng.Intn(memcachedHotKeys)
			} else {
				key = memcachedHotKeys + rng.Intn(MemcachedKeys-memcachedHotKeys)
			}
			vpn = m.arena.Base + pt.VPN(key*MemcachedValuePages)
			write = rng.Intn(100) < MemcachedSetPct
			step = 2
			return kernel.Compute(MemcachedThink / 2)
		case 2: // the value access: hot keys TLB-hit, cold keys major-fault
			step = 3
			return kernel.TouchRange(vpn, MemcachedValuePages, write)
		case 3:
			step = 1
			return kernel.Compute(MemcachedThink - MemcachedThink/2)
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
func (m *Memcached) ArenaPages() int { return MemcachedKeys * MemcachedValuePages }
