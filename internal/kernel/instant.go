package kernel

import (
	"latr/internal/obs"
	"latr/internal/pt"
	"latr/internal/sim"
)

// InstantPolicy is an idealised coherence mechanism: remote TLB entries
// vanish instantly and for free. It is both the lower-bound ablation (what
// perfect hardware TLB coherence à la UNITD/HATRIC would give, minus their
// hardware costs — §2.2) and the vehicle for kernel unit tests, because it
// exercises the kernel paths without policy-induced timing.
type InstantPolicy struct {
	k *Kernel
}

var _ Policy = (*InstantPolicy)(nil)
var _ Attacher = (*InstantPolicy)(nil)

// NewInstantPolicy returns the ideal policy (attach happens in kernel.New).
func NewInstantPolicy() *InstantPolicy { return &InstantPolicy{} }

// Attach implements Attacher.
func (p *InstantPolicy) Attach(k *Kernel) { p.k = k }

// Name implements Policy.
func (p *InstantPolicy) Name() string { return "instant" }

// invalidateEverywhere removes the range from every core's TLB at zero
// simulated cost.
func (p *InstantPolicy) invalidateEverywhere(mm *MM, start pt.VPN, pages int) {
	for _, core := range p.k.Cores {
		core.TLB.InvalidateRange(core.pcid(mm), start, start+pt.VPN(pages))
	}
}

// Munmap implements Policy.
func (p *InstantPolicy) Munmap(c *Core, u Unmap, done func()) {
	p.invalidateEverywhere(u.MM, u.Start, u.Pages)
	p.k.ReleaseFrames(u.Frames)
	if !u.KeepVMA {
		p.k.ReleaseVA(u.MM, u.Start, u.Pages)
	}
	u.Span.Mark(obs.PhaseReclaim, c.ID, p.k.Now(), 0)
	p.k.met.initiated.Inc()
	done()
}

// SyncChange implements Policy.
func (p *InstantPolicy) SyncChange(c *Core, mm *MM, start pt.VPN, pages int, done func()) {
	p.invalidateEverywhere(mm, start, pages)
	p.k.met.initiated.Inc()
	done()
}

// NUMAUnmap implements Policy.
func (p *InstantPolicy) NUMAUnmap(c *Core, mm *MM, start pt.VPN, pages int, done func()) {
	for i := 0; i < pages; i++ {
		mm.PT.SetNUMAHint(start+pt.VPN(i), true)
	}
	p.invalidateEverywhere(mm, start, pages)
	p.k.met.initiated.Inc()
	done()
}

// OnTick implements Policy.
func (p *InstantPolicy) OnTick(*Core) sim.Time { return 0 }

// OnContextSwitch implements Policy.
func (p *InstantPolicy) OnContextSwitch(*Core) sim.Time { return 0 }

// OnPageTouch implements Policy.
func (p *InstantPolicy) OnPageTouch(*Core, *MM, pt.VPN) sim.Time { return 0 }

// OnMMExit implements Policy: the ideal policy keeps no per-MM state.
func (p *InstantPolicy) OnMMExit(*MM) {}
