// Package remote models an Infiniswap-style remote-memory paging backend
// (LATR §6.2): swap pages travel over one-sided RDMA verbs to a memory
// server instead of a local SSD. The case study's point is architectural,
// not about the network — with a fast remote device, the synchronous TLB
// shootdown Linux performs before it can issue the RDMA write dominates
// the swap-out critical path, while LATR's lazy reclamation overlaps the
// shootdown with the write. The backend therefore models exactly the
// pieces that shape that critical path:
//
//   - a per-NUMA-node NIC with deterministic FIFO queueing (one page's
//     serialization time occupies the NIC; back-to-back pages queue),
//   - calibrated one-sided read/write wire latencies from the cost table
//     (hop/socket-scaled in cost.Default),
//   - a remote memory node with its own service queue and a bounded frame
//     pool (exhaustion falls back to disk-class latency, like Infiniswap),
//   - in-flight operation tracking: a swap-in racing the not-yet-complete
//     RDMA write of the same page chains behind the write.
//
// Everything runs inside the kernel's single-threaded event loop, so all
// queue state is deterministic and the experiment fingerprints are
// byte-stable.
package remote

import (
	"fmt"

	"latr/internal/cost"
	"latr/internal/kernel"
	"latr/internal/metrics"
	"latr/internal/obs"
	"latr/internal/pt"
	"latr/internal/sim"
)

// Config tunes the remote-memory backend. Latency constants come from the
// kernel's cost.Model at Attach time; Config covers the capacity knobs.
type Config struct {
	// RemoteFrames caps the remote node's frame pool; stores beyond it
	// fall back to the disk path. 0 means effectively unbounded (1<<20).
	RemoteFrames int64
}

// DefaultConfig returns an effectively unbounded remote node.
func DefaultConfig() Config { return Config{} }

// Validate rejects impossible configurations.
func (c Config) Validate() error {
	if c.RemoteFrames < 0 {
		return fmt.Errorf("remote: RemoteFrames %d is negative", c.RemoteFrames)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.RemoteFrames == 0 {
		c.RemoteFrames = 1 << 20
	}
	return c
}

// pageKey identifies one swapped-out page.
type pageKey struct {
	mm  *kernel.MM
	vpn pt.VPN
}

// location says where a stored page's bytes live.
type location uint8

const (
	onRemote location = iota + 1
	onDisk
)

// flight tracks one in-progress RDMA write. Loads arriving before the
// write completes park their continuations here.
type flight struct {
	waiters []func()
}

// Backend implements swap.Backend over the remote-memory model. One
// Backend serves one kernel; build a fresh one per simulation.
type Backend struct {
	cfg Config
	k   *kernel.Kernel
	m   *cost.Model

	// nicFree[n] is the virtual time node n's NIC finishes its current
	// transfer; remoteFree is the same for the memory server's DMA engine.
	nicFree    []sim.Time
	remoteFree sim.Time

	framesInUse int64
	stored      map[pageKey]location
	inflight    map[pageKey]*flight

	met struct {
		store, load, poolFull, inflightWaits, dropped metrics.Counter
		crashes, crashFailover                        metrics.Counter
		frames                                        metrics.Gauge
		nicWait                                       metrics.Hist
		storeLatency, loadLatency                     metrics.Perc
	}
}

// New builds a remote backend; it panics on a Validate error, like
// swap.New.
func New(cfg Config) *Backend {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Backend{
		cfg:      cfg.withDefaults(),
		stored:   map[pageKey]location{},
		inflight: map[pageKey]*flight{},
	}
}

// Name identifies the backend in metrics and tables.
func (b *Backend) Name() string { return "remote" }

// Attach implements swap.Backend.
func (b *Backend) Attach(k *kernel.Kernel) {
	b.k = k
	b.m = &k.Cost
	b.nicFree = make([]sim.Time, k.Spec.NumNodes())
	r := k.Metrics
	b.met.store = r.NewCounter("remote.store")
	b.met.load = r.NewCounter("remote.load")
	b.met.poolFull = r.NewCounter("remote.pool_full")
	b.met.inflightWaits = r.NewCounter("remote.inflight_waits")
	b.met.dropped = r.NewCounter("remote.dropped")
	b.met.crashes = r.NewCounter("remote.crashes")
	b.met.crashFailover = r.NewCounter("remote.crash_failover")
	b.met.frames = r.NewGauge("remote.frames")
	b.met.nicWait = r.NewHist("remote.nic_wait")
	b.met.storeLatency = r.NewPerc("remote.store_latency")
	b.met.loadLatency = r.NewPerc("remote.load_latency")
}

// Store implements swap.Backend: a one-sided RDMA write of one page. done
// fires when the completion event (CQE) for the write arrives — the
// swapper holds the mm write semaphore until then, so the write is on the
// eviction critical path under every policy; what differs per policy is
// how much shootdown time ran before Store was even called.
func (b *Backend) Store(c *kernel.Core, mm *kernel.MM, vpn pt.VPN, done func()) {
	k := b.k
	key := pageKey{mm, vpn}
	node := k.Spec.NodeOf(c.ID)

	// Placement is decided at issue time, deterministically: claim a
	// remote frame if the pool has room, otherwise take the disk path.
	loc := onRemote
	if prev, ok := b.stored[key]; ok {
		loc = prev // re-store of a key whose frame is still claimed
	} else if b.framesInUse >= b.cfg.RemoteFrames {
		loc = onDisk
		b.met.poolFull.Inc()
	} else {
		b.framesInUse++
		b.met.frames.Add(1)
	}
	b.stored[key] = loc

	fl := &flight{}
	b.inflight[key] = fl
	b.met.store.Inc()

	c.Busy(b.m.RDMAPostCost, false, func() {
		now := k.Now()
		var complete sim.Time
		if loc == onDisk {
			complete = now + b.m.RemoteFallbackPerPage
		} else {
			start := now
			if b.nicFree[node] > start {
				start = b.nicFree[node]
			}
			b.met.nicWait.Observe(start - now)
			b.nicFree[node] = start + b.m.RDMAPagePeriod
			arrive := start + b.m.RDMAPagePeriod + b.m.RDMAWriteLatency
			svc := arrive
			if b.remoteFree > svc {
				svc = b.remoteFree
			}
			b.remoteFree = svc + b.m.RemoteServePeriod
			complete = svc + b.m.RemoteServePeriod
		}
		c.Span().Mark(obs.PhaseStore, c.ID, now, complete-now)
		k.Engine.At(complete, func(sim.Time) {
			b.met.storeLatency.Observe(k.Now() - now)
			if b.inflight[key] == fl {
				delete(b.inflight, key)
			}
			done()
			for _, w := range fl.waiters {
				w()
			}
		})
	})
}

// Load implements swap.Backend: a one-sided RDMA read of one page on a
// major fault. A load racing the in-flight write of the same page parks
// until the write's completion event, then issues the read.
func (b *Backend) Load(c *kernel.Core, mm *kernel.MM, vpn pt.VPN, done func()) {
	key := pageKey{mm, vpn}
	if fl, ok := b.inflight[key]; ok {
		b.met.inflightWaits.Inc()
		fl.waiters = append(fl.waiters, func() { b.read(c, key, done) })
		return
	}
	b.read(c, key, done)
}

// read performs the device read for a settled page.
func (b *Backend) read(c *kernel.Core, key pageKey, done func()) {
	k := b.k
	node := k.Spec.NodeOf(c.ID)
	loc, ok := b.stored[key]
	if ok {
		delete(b.stored, key)
		if loc == onRemote {
			b.framesInUse--
			b.met.frames.Add(-1)
		}
	} else {
		// The eviction marked the page swap-resident but its Store has not
		// been issued yet (the policy's shootdown is still running on the
		// swapper core). The fault serializes behind the eviction on the mm
		// semaphore anyway; charge the remote read cost.
		loc = onRemote
	}
	b.met.load.Inc()
	c.Busy(b.m.RDMAPostCost, false, func() {
		now := k.Now()
		var complete sim.Time
		if loc == onDisk {
			complete = now + b.m.RemoteFallbackPerPage
		} else {
			start := now
			if b.nicFree[node] > start {
				start = b.nicFree[node]
			}
			b.met.nicWait.Observe(start - now)
			svc := start
			if b.remoteFree > svc {
				svc = b.remoteFree
			}
			b.remoteFree = svc + b.m.RemoteServePeriod
			// The payload serializes into the local NIC on the way back.
			complete = svc + b.m.RemoteServePeriod + b.m.RDMAReadLatency + b.m.RDMAPagePeriod
			b.nicFree[node] = complete
		}
		k.Engine.At(complete, func(sim.Time) {
			b.met.loadLatency.Observe(k.Now() - now)
			done()
		})
	})
}

// Drop implements swap.Backend: the VA range died while swapped out;
// release the remote frame without a read.
func (b *Backend) Drop(mm *kernel.MM, vpn pt.VPN) {
	key := pageKey{mm, vpn}
	loc, ok := b.stored[key]
	if !ok {
		return
	}
	delete(b.stored, key)
	if loc == onRemote {
		b.framesInUse--
		b.met.frames.Add(-1)
	}
	b.met.dropped.Inc()
}

// Crash models the memory server dying: the frame pool is lost and every
// page whose only fast copy lived there fails over to its disk backup
// (Infiniswap keeps an asynchronous disk copy precisely for this).
// In-flight writes are not interrupted — their completion events fire at
// the already-scheduled times and release any chained loads — but the
// bytes land on a dead node, so the stored location flips to disk and
// later reads pay disk-class latency. No frame is leaked: the pool gauge
// drops to zero here and reads of failed-over pages see onDisk, so they
// never decrement it again.
func (b *Backend) Crash() {
	moved := uint64(0)
	for key, loc := range b.stored {
		if loc == onRemote {
			b.stored[key] = onDisk
			moved++
		}
	}
	b.met.crashes.Inc()
	b.met.crashFailover.Add(moved)
	b.met.frames.Add(-b.framesInUse)
	b.framesInUse = 0
	// The replacement server starts with an idle DMA engine.
	b.remoteFree = 0
}

// FramesInUse reports the remote pool occupancy (for tests).
func (b *Backend) FramesInUse() int64 { return b.framesInUse }

// InFlight reports the number of outstanding writes (for tests).
func (b *Backend) InFlight() int { return len(b.inflight) }
