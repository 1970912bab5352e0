package shootdown

import (
	"latr/internal/kernel"
	"latr/internal/metrics"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/topo"
)

// ABIS models Amit's access-based invalidation (USENIX ATC'17, §2.3): page
// table access bits track which cores actually share each page, so the
// shootdown IPIs go only to true sharers instead of all of mm_cpumask. The
// price is the bookkeeping on every TLB fill and the access-bit scan at
// unmap time — which is why ABIS loses to stock Linux at low core counts
// in Fig 9 and wins beyond ~8 cores.
//
// The shootdown itself remains fully synchronous, which is the gap LATR
// targets: ABIS reduces *how many* IPIs are sent, not the waiting.
type ABIS struct {
	k *kernel.Kernel

	// sharers[mm][vpn] = cores that filled a TLB entry for vpn since the
	// last shootdown of that page.
	sharers map[*kernel.MM]map[pt.VPN]*topo.CoreMask

	// unmaps counts Munmap calls; every conservativeEvery-th falls back to
	// the full cpumask, modelling the cases where access-bit information
	// is unusable in Amit's design (long-resident TLB entries past the
	// tracking epoch, shared page tables).
	unmaps uint64

	// maskPool recycles per-VPN sharer masks: the touch/shootdown cycle
	// retires masks constantly (sharerTargets deletes consumed entries), so
	// reusing them keeps the tracking hot path allocation-free.
	maskPool []*topo.CoreMask

	// scans[core] is that core's munmap record, made on its first munmap.
	scans []*abisScan

	met struct{ tracked, ipisSaved, conservative metrics.Counter }
}

// abisScan is a core's munmap during its access-bit scan: the unmap and
// done that the scan's end hands to the shootdown, with that continuation
// bound once. The core is busy from the scan to the free, so one record
// per core serves every munmap it initiates.
type abisScan struct {
	p      *ABIS
	c      *kernel.Core
	u      kernel.Unmap
	done   func()
	shotFn func() // s.shoot
}

// maxPooledMasks bounds maskPool; beyond it retired masks go to the GC.
const maxPooledMasks = 4096

// conservativeEvery controls how often ABIS distrusts its sharer sets.
const conservativeEvery = 3

var (
	_ kernel.Policy   = (*ABIS)(nil)
	_ kernel.Attacher = (*ABIS)(nil)
)

// NewABIS returns the ABIS baseline policy.
func NewABIS() *ABIS {
	return &ABIS{sharers: make(map[*kernel.MM]map[pt.VPN]*topo.CoreMask)}
}

// Attach implements kernel.Attacher.
func (p *ABIS) Attach(k *kernel.Kernel) {
	p.k = k
	p.met.tracked = k.Metrics.NewCounter("abis.tracked")
	p.met.ipisSaved = k.Metrics.NewCounter("abis.ipis_saved")
	p.met.conservative = k.Metrics.NewCounter("abis.conservative")
}

// Name implements kernel.Policy.
func (p *ABIS) Name() string { return "abis" }

// OnPageTouch implements kernel.Policy: record the sharer. The tracking
// cost is charged only when the core was not already known (mirroring the
// access-bit sampling cost structure).
func (p *ABIS) OnPageTouch(c *kernel.Core, mm *kernel.MM, vpn pt.VPN) sim.Time {
	perMM := p.sharers[mm]
	if perMM == nil {
		perMM = make(map[pt.VPN]*topo.CoreMask)
		p.sharers[mm] = perMM
	}
	mask := perMM[vpn]
	if mask == nil {
		mask = p.getMask()
		perMM[vpn] = mask
	}
	if mask.Has(c.ID) {
		return 0
	}
	mask.Set(c.ID)
	p.met.tracked.Inc()
	return p.k.Cost.ABISTrackPerPageTouch
}

// sharerTargets computes the narrowed target set for [start, start+pages):
// the union of per-page sharer masks, intersected with live cpumask
// targets, minus the initiator. Consumed entries are dropped (the
// shootdown resets the tracking epoch).
func (p *ABIS) sharerTargets(c *kernel.Core, mm *kernel.MM, start pt.VPN, pages int) topo.CoreMask {
	perMM := p.sharers[mm]
	var union topo.CoreMask
	for i := 0; i < pages; i++ {
		vpn := start + pt.VPN(i)
		if mask := perMM[vpn]; mask != nil {
			union = union.Or(*mask)
			delete(perMM, vpn)
			p.putMask(mask)
		}
	}
	out := p.k.ShootdownTargets(c, mm).And(union)
	if saved := mm.CPUMask.Count() - 1 - out.Count(); saved > 0 {
		p.met.ipisSaved.Add(uint64(saved))
	}
	return out
}

// Munmap implements kernel.Policy: synchronous shootdown to sharers only,
// after the access-bit scan.
func (p *ABIS) Munmap(c *kernel.Core, u kernel.Unmap, done func()) {
	if p.scans == nil {
		p.scans = make([]*abisScan, len(p.k.Cores))
	}
	s := p.scans[c.ID]
	if s == nil {
		s = &abisScan{p: p, c: c}
		s.shotFn = s.shoot
		p.scans[c.ID] = s
	}
	s.u, s.done = u, done
	c.Busy(sim.Time(u.Pages)*p.k.Cost.ABISScanPerPage, false, s.shotFn)
}

// shoot ends the scan: it picks the targets and shoots down and frees.
func (s *abisScan) shoot() {
	p, c, k := s.p, s.c, s.p.k
	u, done := s.u, s.done
	s.u, s.done = kernel.Unmap{}, nil
	p.unmaps++
	targets := p.sharerTargets(c, u.MM, u.Start, u.Pages)
	if p.unmaps%conservativeEvery == 0 {
		// A second target computation (sharerTargets ran the first):
		// it counts shootdown.lazy_skipped and flushes skipped idle
		// cores again, as perfbench's committed digests expect.
		targets = k.ShootdownTargets(c, u.MM)
		p.met.conservative.Inc()
	}
	k.ShootdownAndFree(c, u, targets, done)
}

// SyncChange implements kernel.Policy.
func (p *ABIS) SyncChange(c *kernel.Core, mm *kernel.MM, start pt.VPN, pages int, done func()) {
	scan := sim.Time(pages) * p.k.Cost.ABISScanPerPage
	c.Busy(scan, false, func() {
		p.k.Shootdown(c, mm, start, pages, p.sharerTargets(c, mm, start, pages), done)
	})
}

// NUMAUnmap implements kernel.Policy: like Linux but with narrowed targets
// and the access-bit scan on top of the hint prologue.
func (p *ABIS) NUMAUnmap(c *kernel.Core, mm *kernel.MM, start pt.VPN, pages int, done func()) {
	k := p.k
	cost := k.MarkNUMAHints(c, mm, start, pages) + sim.Time(pages)*k.Cost.ABISScanPerPage
	c.Busy(cost, true, func() {
		k.Shootdown(c, mm, start, pages, p.sharerTargets(c, mm, start, pages), done)
	})
}

// OnTick implements kernel.Policy.
func (p *ABIS) OnTick(*kernel.Core) sim.Time { return 0 }

// OnContextSwitch implements kernel.Policy.
func (p *ABIS) OnContextSwitch(*kernel.Core) sim.Time { return 0 }

// OnMMExit implements kernel.Policy: drop the exited address space's sharer
// tracking. Without this every fork/exit cycle left one permanent
// map[VPN]*CoreMask behind (the MM pointer keys kept the whole table live),
// so long-running churn workloads leaked without bound.
func (p *ABIS) OnMMExit(mm *kernel.MM) {
	perMM, ok := p.sharers[mm]
	if !ok {
		return
	}
	for vpn, mask := range perMM {
		delete(perMM, vpn)
		p.putMask(mask)
	}
	delete(p.sharers, mm)
}

// SharerMMs reports how many address spaces currently have sharer tracking
// state — exported for the leak regression test.
func (p *ABIS) SharerMMs() int { return len(p.sharers) }

func (p *ABIS) getMask() *topo.CoreMask {
	if n := len(p.maskPool) - 1; n >= 0 {
		m := p.maskPool[n]
		p.maskPool[n] = nil
		p.maskPool = p.maskPool[:n]
		return m
	}
	return &topo.CoreMask{}
}

func (p *ABIS) putMask(m *topo.CoreMask) {
	if len(p.maskPool) >= maxPooledMasks {
		return
	}
	*m = topo.CoreMask{}
	p.maskPool = append(p.maskPool, m)
}
