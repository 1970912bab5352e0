// Package shootdown implements the baseline TLB-coherence policies the
// paper compares against: Linux 4.10's synchronous IPI shootdown, ABIS's
// access-bit sharer tracking (Amit, USENIX ATC'17), and a Barrelfish-style
// message-passing transport. The paper's contribution, LATR, lives in
// internal/core.
package shootdown

import (
	"latr/internal/kernel"
	"latr/internal/pt"
	"latr/internal/sim"
)

// Linux is the stock Linux 4.10 mechanism (§2.1): the munmap path clears
// PTEs, invalidates the local TLB, sends batched IPIs to every core in
// mm_cpumask, and spins until all cores ACK; remote cores invalidate in
// their interrupt handlers. Idle cores in lazy-TLB mode are skipped and
// flush on wake (§2.3).
type Linux struct {
	k *kernel.Kernel
}

var (
	_ kernel.Policy   = (*Linux)(nil)
	_ kernel.Attacher = (*Linux)(nil)
)

// NewLinux returns the Linux baseline policy.
func NewLinux() *Linux { return &Linux{} }

// Attach implements kernel.Attacher.
func (p *Linux) Attach(k *kernel.Kernel) { p.k = k }

// Name implements kernel.Policy.
func (p *Linux) Name() string { return "linux" }

// Munmap implements kernel.Policy: the fully synchronous free path of
// Fig 2a. Frames and VA are released only after the last ACK.
func (p *Linux) Munmap(c *kernel.Core, u kernel.Unmap, done func()) {
	p.k.ShootdownAndFree(c, u, p.k.ShootdownTargets(c, u.MM), done)
}

// SyncChange implements kernel.Policy (mprotect/mremap path).
func (p *Linux) SyncChange(c *kernel.Core, mm *kernel.MM, start pt.VPN, pages int, done func()) {
	p.k.Shootdown(c, mm, start, pages, p.k.ShootdownTargets(c, mm), done)
}

// NUMAUnmap implements kernel.Policy: Linux's change_prot_numa marks the
// PTEs and performs an immediate synchronous shootdown (Fig 3a) — the cost
// paid even when the later faults decide not to migrate.
func (p *Linux) NUMAUnmap(c *kernel.Core, mm *kernel.MM, start pt.VPN, pages int, done func()) {
	k := p.k
	c.Busy(k.MarkNUMAHints(c, mm, start, pages), true, func() {
		k.Shootdown(c, mm, start, pages, k.ShootdownTargets(c, mm), done)
	})
}

// OnTick implements kernel.Policy.
func (p *Linux) OnTick(*kernel.Core) sim.Time { return 0 }

// OnContextSwitch implements kernel.Policy.
func (p *Linux) OnContextSwitch(*kernel.Core) sim.Time { return 0 }

// OnPageTouch implements kernel.Policy.
func (p *Linux) OnPageTouch(*kernel.Core, *kernel.MM, pt.VPN) sim.Time { return 0 }

// OnMMExit implements kernel.Policy: Linux keeps no per-MM policy state.
func (p *Linux) OnMMExit(*kernel.MM) {}
