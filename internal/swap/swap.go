// Package swap implements LRU-based page swapping — the second Migration
// row of Table 1. §3 sketches the lazy variant: "with a least recently
// used (LRU) based page swapping algorithm, the page table unmap and swap
// operation can be performed lazily after the last core has invalidated
// the TLB entry".
//
// The swapper is a background kernel thread: when a NUMA node's free
// memory drops below the low watermark, it scans for cold pages (accessed
// bit clear since the previous scan — a one-hand clock), unmaps them
// *through the coherence policy's free path*, and writes them to the swap
// device behind the pluggable Backend interface. The ordering is the heart
// of the Infiniswap case study (§6.2): the device write is issued from the
// policy's completion continuation, so under Linux the synchronous
// shootdown (ACK spin included) sits on the swap-out critical path *before*
// the write, while under LATR the write starts ~132 ns after the unmap and
// overlaps lazy reclamation. A later touch takes a major fault and swaps
// the page back in through Backend.Load. The kernel's shadow tracker checks
// the reuse invariant across the whole cycle.
package swap

import (
	"fmt"

	"latr/internal/kernel"
	"latr/internal/mem"
	"latr/internal/metrics"
	"latr/internal/obs"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/topo"
)

// Backend abstracts the swap device. The built-in LocalBackend models an
// NVMe-class SSD; internal/remote provides the Infiniswap-style RDMA
// backend. Implementations are single-kernel: Attach binds the backend to
// the kernel whose event loop will drive it, and all other methods run
// inside that loop.
type Backend interface {
	// Name identifies the backend in metrics and tables.
	Name() string
	// Attach binds the backend to the kernel before the swapper starts.
	Attach(k *kernel.Kernel)
	// Store writes the page backing (mm, vpn) out; done fires when the
	// device write completes. The swapper calls it with mm's write
	// semaphore held, after the coherence policy finished its part of the
	// eviction — which is exactly what puts the Linux shootdown, but not
	// LATR's state save, in front of it.
	Store(c *kernel.Core, mm *kernel.MM, vpn pt.VPN, done func())
	// Load reads the page back on a major fault; done fires when the data
	// is available. A Load racing an in-flight Store of the same page must
	// complete after the write does.
	Load(c *kernel.Core, mm *kernel.MM, vpn pt.VPN, done func())
	// Drop discards the stored copy of (mm, vpn) without reading it — the
	// VA range was unmapped (or the process exited) while swapped out.
	Drop(mm *kernel.MM, vpn pt.VPN)
}

// Config tunes the swapper.
type Config struct {
	// LowWatermarkFrames triggers swap-out when a node's free frames drop
	// below it; the swapper works until HighWatermarkFrames are free.
	LowWatermarkFrames  int64
	HighWatermarkFrames int64
	// ScanPeriod is the interval between pressure checks.
	ScanPeriod sim.Time
	// BatchPages caps pages swapped per pass.
	BatchPages int
}

// DefaultConfig returns the default watermarks, period and batch.
func DefaultConfig() Config {
	return Config{
		LowWatermarkFrames:  256,
		HighWatermarkFrames: 512,
		ScanPeriod:          2 * sim.Millisecond,
		BatchPages:          128,
	}
}

const (
	// writePerPage and readPerPage are the LocalBackend's NVMe-class
	// device costs; other backends model their own.
	writePerPage = 8 * sim.Microsecond
	readPerPage  = 10 * sim.Microsecond
	// swapperCore hosts the swapper thread.
	swapperCore topo.CoreID = 0
)

// minScanPeriod is the clamp floor for ScanPeriod: scanning more often
// than this would let the daemon monopolise its core, mirroring the
// reclaim-period clamp in the LATR core config.
const minScanPeriod = 100 * sim.Microsecond

// allocRetryDelay and maxAllocRetries bound the direct-reclaim-style wait
// a swap-in performs when every node is momentarily out of frames. Under
// LATR this window is routine: evicted frames return to the pool only at
// the next lazy sweep, so a fault storm right after eviction must wait a
// sweep period rather than fail. 200 × 50 µs covers several sweep epochs.
const (
	allocRetryDelay = 50 * sim.Microsecond
	maxAllocRetries = 200
)

// Validate rejects configurations that could never have been intended:
// negative fields and inverted watermarks. Zero fields mean "use the
// default" and are legal; too-small periods are clamped (see
// withDefaults), not rejected, mirroring kernel.Config.
func (c Config) Validate() error {
	if c.LowWatermarkFrames < 0 {
		return fmt.Errorf("swap: LowWatermarkFrames %d is negative", c.LowWatermarkFrames)
	}
	if c.HighWatermarkFrames < 0 {
		return fmt.Errorf("swap: HighWatermarkFrames %d is negative", c.HighWatermarkFrames)
	}
	if c.LowWatermarkFrames > 0 && c.HighWatermarkFrames > 0 &&
		c.LowWatermarkFrames > c.HighWatermarkFrames {
		return fmt.Errorf("swap: watermarks inverted (low %d > high %d)",
			c.LowWatermarkFrames, c.HighWatermarkFrames)
	}
	if c.ScanPeriod < 0 {
		return fmt.Errorf("swap: ScanPeriod %v is negative", c.ScanPeriod)
	}
	if c.BatchPages < 0 {
		return fmt.Errorf("swap: BatchPages %d is negative", c.BatchPages)
	}
	return nil
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.LowWatermarkFrames == 0 {
		c.LowWatermarkFrames = d.LowWatermarkFrames
	}
	if c.HighWatermarkFrames == 0 {
		c.HighWatermarkFrames = d.HighWatermarkFrames
	}
	if c.ScanPeriod == 0 {
		c.ScanPeriod = d.ScanPeriod
	}
	if c.ScanPeriod < minScanPeriod {
		c.ScanPeriod = minScanPeriod
	}
	if c.BatchPages == 0 {
		c.BatchPages = d.BatchPages
	}
	return c
}

// LocalBackend models the NVMe-class local swap device the pre-remote
// experiments used: a fixed per-page write/read latency charged as busy
// time on the initiating core, no queueing, no capacity limit.
type LocalBackend struct {
	k *kernel.Kernel
}

// NewLocalBackend builds the NVMe-class backend.
func NewLocalBackend() *LocalBackend { return &LocalBackend{} }

// Name identifies the backend.
func (b *LocalBackend) Name() string { return "nvme" }

// Attach implements Backend.
func (b *LocalBackend) Attach(k *kernel.Kernel) { b.k = k }

// Store charges the device write as busy time on the initiating core.
func (b *LocalBackend) Store(c *kernel.Core, _ *kernel.MM, _ pt.VPN, done func()) {
	if b.k != nil {
		c.Span().Mark(obs.PhaseStore, c.ID, b.k.Now(), writePerPage)
	}
	c.Busy(writePerPage, false, done)
}

// Load charges the device read as busy time on the faulting core.
func (b *LocalBackend) Load(c *kernel.Core, _ *kernel.MM, _ pt.VPN, done func()) {
	c.Busy(readPerPage, false, done)
}

// Drop implements Backend (nothing to reclaim on the local device).
func (b *LocalBackend) Drop(*kernel.MM, pt.VPN) {}

// Swapper is the kswapd-style daemon plus the swap-in fault hook.
type Swapper struct {
	k       *kernel.Kernel
	cfg     Config
	backend Backend

	procs []*kernel.Process
	// swapped[mm][vpn] marks pages resident on the swap device.
	swapped map[*kernel.MM]map[pt.VPN]bool
	cursor  map[*kernel.MM]pt.VPN

	met struct {
		pressurePasses, out, in, allocRetries, dropped metrics.Counter
		unmapWait                                      metrics.Hist
		evictHold                                      metrics.Perc
	}
}

// New builds a swapper over the local NVMe-class backend (zero cfg fields
// take defaults). It panics on a Validate error, like kernel.New.
func New(cfg Config) *Swapper {
	return NewWithBackend(cfg, nil)
}

// NewWithBackend builds a swapper over an explicit device backend (nil
// falls back to the local NVMe model).
func NewWithBackend(cfg Config, b Backend) *Swapper {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	if b == nil {
		b = NewLocalBackend()
	}
	return &Swapper{
		cfg:     cfg,
		backend: b,
		swapped: make(map[*kernel.MM]map[pt.VPN]bool),
		cursor:  make(map[*kernel.MM]pt.VPN),
	}
}

// Backend returns the device backend the swapper drives.
func (s *Swapper) Backend() Backend { return s.backend }

// Install starts the swapper thread and hooks swap-in into demand faults.
func (s *Swapper) Install(k *kernel.Kernel) {
	s.k = k
	r := k.Metrics
	s.met.pressurePasses = r.NewCounter("swap.pressure_passes")
	s.met.out = r.NewCounter("swap.out")
	s.met.in = r.NewCounter("swap.in")
	s.met.allocRetries = r.NewCounter("swap.alloc_retries")
	s.met.dropped = r.NewCounter("swap.dropped")
	s.met.unmapWait = r.NewHist("swap.unmap_wait")
	s.met.evictHold = r.NewPerc("swap.evict_hold")
	s.backend.Attach(k)
	k.SetSwapHandler(s)
	host := k.NewProcess()
	sleep := true
	host.SpawnKernel(swapperCore, kernel.Loop(func(*kernel.Thread) kernel.Op {
		if sleep {
			sleep = false
			return kernel.Sleep(s.cfg.ScanPeriod)
		}
		sleep = true
		return kernel.Call(s.pass)
	}))
}

// Register adds a process to the reclaim scan set (idempotent).
func (s *Swapper) Register(p *kernel.Process) {
	for _, q := range s.procs {
		if q == p {
			return
		}
	}
	s.procs = append(s.procs, p)
}

// pressured reports nodes below the low watermark.
func (s *Swapper) pressured() []topo.NodeID {
	var out []topo.NodeID
	for n := 0; n < s.k.Spec.NumNodes(); n++ {
		node := topo.NodeID(n)
		free := s.k.Alloc.FramesPerNode() - s.k.Alloc.InUse(node)
		if free < s.cfg.LowWatermarkFrames {
			out = append(out, node)
		}
	}
	return out
}

// pass performs one swap-out pass if any node is under pressure.
func (s *Swapper) pass(c *kernel.Core, th *kernel.Thread, done func()) {
	nodes := s.pressured()
	if len(nodes) == 0 {
		done()
		return
	}
	under := map[topo.NodeID]bool{}
	for _, n := range nodes {
		under[n] = true
	}
	s.met.pressurePasses.Inc()

	// One-hand clock: pages with the accessed bit set get a second chance
	// (bit cleared); cold pages are victims.
	type victim struct {
		mm  *kernel.MM
		vpn pt.VPN
	}
	var victims []victim
	budget := s.cfg.BatchPages
	for _, p := range s.procs {
		mm := p.MM
		if budget <= 0 {
			break
		}
		cur := s.cursor[mm]
		var lastSeen pt.VPN
		for _, v := range mm.Space.VMAs() {
			if budget <= 0 {
				break
			}
			for vpn := v.Start; vpn < v.End && budget > 0; vpn++ {
				if vpn < cur {
					continue
				}
				lastSeen = vpn
				e, ok := mm.PT.Get(vpn)
				if !ok || e.NUMAHint {
					continue
				}
				if !under[s.k.Alloc.NodeOf(e.PFN)] {
					continue
				}
				if was, _ := mm.PT.ClearAccessed(vpn); was {
					continue // second chance
				}
				victims = append(victims, victim{mm, vpn})
				budget--
			}
		}
		if lastSeen == 0 || budget > 0 {
			s.cursor[mm] = 0
		} else {
			s.cursor[mm] = lastSeen + 1
		}
	}
	if len(victims) == 0 {
		done()
		return
	}

	// Swap out each victim: unmap, hand remote coherence to the policy,
	// then write to the device from the policy's completion continuation.
	// Under Linux that continuation fires only after every ACK arrived, so
	// the shootdown serializes ahead of the device write; under LATR it
	// fires after the ~132 ns state save and the write overlaps the lazy
	// sweeps — §3's "swap lazily after the last core has invalidated". The
	// write semaphore is held across the write, so faulting readers of the
	// same address space observe the full critical path.
	var next func(i int)
	next = func(i int) {
		if i >= len(victims) {
			done()
			return
		}
		v := victims[i]
		v.mm.Sem.AcquireWrite(c, th, func() {
			e, ok := v.mm.PT.Get(v.vpn)
			if !ok || e.NUMAHint {
				v.mm.Sem.ReleaseWrite()
				next(i + 1)
				return
			}
			old, _ := v.mm.PT.Unmap(v.vpn)
			replCost := s.k.ReplUnmapPTE(c, v.mm, v.vpn, old)
			c.TLB.Invalidate(c.PCIDOf(v.mm), v.vpn)
			perMM := s.swapped[v.mm]
			if perMM == nil {
				perMM = make(map[pt.VPN]bool)
				s.swapped[v.mm] = perMM
			}
			perMM[v.vpn] = true
			t0 := s.k.Now()
			sp := s.k.Spans.Begin(obs.KindSwap, c.ID, v.vpn, 1, t0)
			sp.Mark(obs.PhaseInitiate, c.ID, t0, 0)
			u := kernel.Unmap{
				MM:      v.mm,
				Start:   v.vpn,
				Pages:   1,
				Frames:  []kernel.FrameRef{{VPN: v.vpn, PFN: old.PFN}},
				KeepVMA: true,
				Span:    sp,
			}
			c.SetSpan(sp)
			evict := func() {
				s.k.Policy().Munmap(c, u, func() {
					s.met.unmapWait.Observe(s.k.Now() - t0)
					// The span stays installed across the device write so the
					// backend can mark its store slice on the swapper's lane.
					s.backend.Store(c, v.mm, v.vpn, func() {
						c.SetSpan(nil)
						v.mm.Sem.ReleaseWrite()
						s.met.out.Inc()
						s.met.evictHold.Observe(s.k.Now() - t0)
						sp.Release(s.k.Now())
						next(i + 1)
					})
				})
			}
			if replCost > 0 {
				// Replica maintenance for the evicted PTE charges ahead of
				// the coherence hand-off (only non-zero under ptrepl).
				c.Busy(replCost, true, evict)
			} else {
				evict()
			}
		})
	}
	next(0)
}

// OnSwapFault implements kernel.SwapHandler: a major fault reading the
// page back from the device. Returns false if vpn is not swap-resident.
func (s *Swapper) OnSwapFault(c *kernel.Core, th *kernel.Thread, vpn pt.VPN, cont func()) bool {
	mm := th.Proc.MM
	perMM := s.swapped[mm]
	if perMM == nil || !perMM[vpn] {
		return false
	}
	delete(perMM, vpn)
	k := s.k
	s.met.in.Inc()
	s.backend.Load(c, mm, vpn, func() {
		var attempt func(tries int)
		attempt = func(tries int) {
			mm.Sem.AcquireRead(c, th, func() {
				if _, ok := mm.PT.Get(vpn); ok {
					mm.Sem.ReleaseRead()
					cont()
					return
				}
				vma, ok := mm.Space.Find(vpn)
				if !ok {
					th.LastFault++
					mm.Sem.ReleaseRead()
					cont()
					return
				}
				pfn, err := s.allocAnyNode(k.Spec.NodeOf(c.ID))
				if err != nil {
					// Out of frames everywhere — wait for reclamation to
					// return some (under LATR that happens at the next lazy
					// sweep, not at eviction time) and retry, like direct
					// reclaim. Only a persistent drought is a real fault.
					mm.Sem.ReleaseRead()
					if tries < maxAllocRetries {
						s.met.allocRetries.Inc()
						c.Busy(allocRetryDelay, false, func() { attempt(tries + 1) })
						return
					}
					th.LastErr = err
					th.LastFault++
					cont()
					return
				}
				if err := mm.PT.Map(vpn, pfn, vma.Writable); err != nil {
					panic(err)
				}
				c.TLB.Insert(c.PCIDOf(mm), vpn, pfn, vma.Writable)
				c.Busy(k.Cost.MmapSetupPerPage+k.ReplUpdateRange(c, mm, vpn, 1), false, func() {
					mm.Sem.ReleaseRead()
					cont()
				})
			})
		}
		attempt(0)
	})
	return true
}

// allocAnyNode tries the faulting core's node first, then the others in ID
// order — the zone-fallback analogue: a swap-in should not fail while any
// node still has free frames.
func (s *Swapper) allocAnyNode(local topo.NodeID) (mem.PFN, error) {
	pfn, err := s.k.AllocFrame(local)
	if err == nil {
		return pfn, nil
	}
	for n := 0; n < s.k.Spec.NumNodes(); n++ {
		if topo.NodeID(n) == local {
			continue
		}
		if pfn, err2 := s.k.AllocFrame(topo.NodeID(n)); err2 == nil {
			return pfn, nil
		}
	}
	return 0, err
}

// OnUnmap implements kernel.SwapUnmapper: when a VA range leaves the
// address space (munmap, mremap source, exit teardown) while some of its
// pages are swapped out, the device copies are discarded so a later mmap
// reusing the VA cannot resurrect stale contents.
func (s *Swapper) OnUnmap(mm *kernel.MM, start pt.VPN, pages int) {
	perMM := s.swapped[mm]
	if len(perMM) == 0 {
		return
	}
	for i := 0; i < pages; i++ {
		vpn := start + pt.VPN(i)
		if perMM[vpn] {
			delete(perMM, vpn)
			s.backend.Drop(mm, vpn)
			s.met.dropped.Inc()
		}
	}
}

// SwappedPages reports pages currently on the device (for tests).
func (s *Swapper) SwappedPages() int {
	n := 0
	for _, per := range s.swapped {
		n += len(per)
	}
	return n
}
