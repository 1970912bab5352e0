package kernel

import (
	"latr/internal/obs"
	"latr/internal/pt"
)

// InstantPolicy is an idealised coherence mechanism: remote TLB entries
// vanish instantly and for free. It is both the lower-bound ablation (what
// perfect hardware TLB coherence à la UNITD/HATRIC would give, minus their
// hardware costs — §2.2) and the vehicle for kernel unit tests, because it
// exercises the kernel paths without policy-induced timing.
type InstantPolicy struct {
	SyncDefaults
}

var _ Policy = (*InstantPolicy)(nil)

// NewInstantPolicy returns the ideal policy.
func NewInstantPolicy() *InstantPolicy { return &InstantPolicy{} }

// Name implements Policy.
func (p *InstantPolicy) Name() string { return "instant" }

// invalidateEverywhere removes the range from every core's TLB at zero
// simulated cost.
func invalidateEverywhere(k *Kernel, mm *MM, start pt.VPN, pages int) {
	for _, core := range k.Cores {
		core.TLB.InvalidateRange(core.pcid(mm), start, start+pt.VPN(pages))
	}
}

// Munmap implements Policy: the free is as instant as the invalidation.
func (p *InstantPolicy) Munmap(c *Core, u Unmap, done func()) {
	k := c.k
	invalidateEverywhere(k, u.MM, u.Start, u.Pages)
	k.ReleaseFrames(u.Frames)
	if !u.KeepVMA {
		k.ReleaseVA(u.MM, u.Start, u.Pages)
	}
	u.Span.Mark(obs.PhaseReclaim, c.ID, k.Now(), 0)
	k.met.initiated.Inc()
	done()
}

// SyncChange implements Policy.
func (p *InstantPolicy) SyncChange(c *Core, mm *MM, start pt.VPN, pages int, done func()) {
	invalidateEverywhere(c.k, mm, start, pages)
	c.k.met.initiated.Inc()
	done()
}

// NUMAUnmap implements Policy: the hints are set at no cost.
func (p *InstantPolicy) NUMAUnmap(c *Core, mm *MM, start pt.VPN, pages int, done func()) {
	for i := 0; i < pages; i++ {
		mm.PT.SetNUMAHint(start+pt.VPN(i), true)
	}
	invalidateEverywhere(c.k, mm, start, pages)
	c.k.met.initiated.Inc()
	done()
}
