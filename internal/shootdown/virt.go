package shootdown

import (
	latrcore "latr/internal/core"
	"latr/internal/kernel"
	"latr/internal/metrics"
	"latr/internal/obs"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/topo"
)

// Virtualized two-level coherence policies (§7's virtualization discussion,
// cost anchors from Yan et al., "Hardware Translation Coherence for
// Virtualized Systems", ISCA'17): under nested paging a TLB entry caches the
// combined gVA→hPA translation, so *either* level changing its table needs
// coherence, and each level can independently choose lazy or synchronous.
// The guest level reuses the existing policies (every guest shootdown pays
// the VM-exit trap-and-fan-out amplification in SendShootdownIPIs); the host
// level is declared through kernel.HostCoherent and executed by the
// hypervisor's reclaim path (kernel.BalloonReclaim):
//
//	policy      guest level      host level
//	linux       sync IPIs        sync INVVPID quiesce  (default HostSync)
//	latr        lazy states      lazy reclaim          (HostLazy)
//	guest-latr  lazy states      sync INVVPID quiesce
//	host-latr   sync IPIs        lazy reclaim
//	hatric      hardware fabric  hardware fabric       (HostHardware)

// GuestLATR runs LATR's lazy protocol inside the guest while the hypervisor
// quiesces synchronously — the "paravirtualize only the guest kernel"
// deployment, where the host is an unmodified VMM.
type GuestLATR struct {
	*latrcore.Policy
}

var (
	_ kernel.Policy       = (*GuestLATR)(nil)
	_ kernel.HostCoherent = (*GuestLATR)(nil)
)

// NewGuestLATR returns the lazy-guest / sync-host policy.
func NewGuestLATR() *GuestLATR {
	return &GuestLATR{Policy: latrcore.New(latrcore.Config{})}
}

// Name implements kernel.Policy.
func (p *GuestLATR) Name() string { return "guest-latr" }

// HostMode implements kernel.HostCoherent: the host side stays synchronous.
func (p *GuestLATR) HostMode() kernel.HostMode { return kernel.HostSync }

// HostLATR keeps the guest on stock synchronous shootdowns but lets the
// hypervisor reclaim lazily — the "modify only the VMM" deployment, where
// guests are unmodified Linux images.
type HostLATR struct {
	Linux
}

var (
	_ kernel.Policy       = (*HostLATR)(nil)
	_ kernel.HostCoherent = (*HostLATR)(nil)
)

// NewHostLATR returns the sync-guest / lazy-host policy.
func NewHostLATR() *HostLATR { return &HostLATR{} }

// Name implements kernel.Policy.
func (p *HostLATR) Name() string { return "host-latr" }

// HostMode implements kernel.HostCoherent.
func (p *HostLATR) HostMode() kernel.HostMode { return kernel.HostLazy }

// HATRIC models Yan et al.'s hardware translation coherence: TLB entries
// participate in a cache-coherence-style protocol, so a table change
// invalidates every cached copy precisely over the fabric — no IPIs, no
// VM exits, no software handler on either level. The initiator only waits
// one fabric propagation delay. It is the paper set's hardware upper bound,
// the same role the "ideal" line plays in LATR's Fig 9.
type HATRIC struct {
	kernel.SyncDefaults
	k   *kernel.Kernel
	met struct{ initiated, batches, invals metrics.Counter }
}

var (
	_ kernel.Policy       = (*HATRIC)(nil)
	_ kernel.Attacher     = (*HATRIC)(nil)
	_ kernel.HostCoherent = (*HATRIC)(nil)
)

// NewHATRIC returns the hardware-coherence policy.
func NewHATRIC() *HATRIC { return &HATRIC{} }

// Attach implements kernel.Attacher.
func (p *HATRIC) Attach(k *kernel.Kernel) {
	p.k = k
	p.met.initiated = k.Metrics.NewCounter("shootdown.initiated")
	p.met.batches = k.Metrics.NewCounter("hatric.batches")
	p.met.invals = k.Metrics.NewCounter("hatric.invals")
}

// Name implements kernel.Policy.
func (p *HATRIC) Name() string { return "hatric" }

// HostMode implements kernel.HostCoherent: EPT changes propagate over the
// same fabric.
func (p *HATRIC) HostMode() kernel.HostMode { return kernel.HostHardware }

// SyncChange implements kernel.Policy: it invalidates every remote cached
// copy over the coherence fabric. Hardware sees actual TLB contents, so
// unlike the IPI path there is no lazy-TLB shortcut to model — but there is
// also no interrupt: remote cores absorb the invalidations as pipeline
// stalls (Inject) while the initiator waits only for fabric propagation.
// A munmap's frames are thus reusable one propagation delay after the PTE
// clear: the fabric guarantees no stale copy survives.
func (p *HATRIC) SyncChange(c *kernel.Core, mm *kernel.MM, start pt.VPN, pages int, done func()) {
	k := p.k
	m := &k.Cost
	sp := c.Span()
	targets := mm.CPUMask
	targets.Clear(c.ID)
	if targets.Empty() {
		done()
		return
	}
	sp.SetTargets(targets)
	p.met.initiated.Inc()
	p.met.batches.Inc()
	now := k.Now()
	targets.ForEach(func(id topo.CoreID) {
		t := k.Cores[id]
		var inval sim.Time
		if pages <= 0 || pages > m.FullFlushThreshold {
			// Past the threshold the batch degenerates to a context-wide
			// invalidation of this address space's tag.
			t.TLB.FlushTag(t.PCIDOf(mm))
			inval = m.TLBFullFlush
		} else {
			t.TLB.InvalidateRange(t.PCIDOf(mm), start, start+pt.VPN(pages))
			inval = sim.Time(pages) * m.HATRICInvalPerEntry
		}
		t.Inject(inval)
		p.met.invals.Add(uint64(max(1, min(pages, m.FullFlushThreshold))))
		sp.Mark(obs.PhaseInvalidate, t.ID, now, inval)
	})
	c.BeginSpin()
	k.Engine.After(m.HATRICPropagation, func(anow sim.Time) {
		sp.Mark(obs.PhaseAck, c.ID, now, anow-now)
		c.EndSpin(done)
	})
}
