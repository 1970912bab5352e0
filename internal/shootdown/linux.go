// Package shootdown implements the baseline TLB-coherence policies the
// paper compares against: Linux 4.10's synchronous IPI shootdown, ABIS's
// access-bit sharer tracking (Amit, USENIX ATC'17), and a Barrelfish-style
// message-passing transport. The paper's contribution, LATR, lives in
// internal/core.
package shootdown

import (
	"latr/internal/kernel"
	"latr/internal/pt"
)

// Linux is the stock Linux 4.10 mechanism (§2.1): the munmap path clears
// PTEs, invalidates the local TLB, sends batched IPIs to every core in
// mm_cpumask, and spins until all cores ACK; remote cores invalidate in
// their interrupt handlers. Idle cores in lazy-TLB mode are skipped and
// flush on wake (§2.3). Frames and VA are released only after the last
// ACK (Fig 2a), and change_prot_numa shoots down at once (Fig 3a): both
// are kernel.SyncDefaults around SyncChange.
type Linux struct {
	kernel.SyncDefaults
}

var _ kernel.Policy = (*Linux)(nil)

// NewLinux returns the Linux baseline policy.
func NewLinux() *Linux { return &Linux{} }

// Name implements kernel.Policy.
func (p *Linux) Name() string { return "linux" }

// SyncChange implements kernel.Policy: IPIs to every core of mm_cpumask
// but the lazy-TLB idle ones.
func (p *Linux) SyncChange(c *kernel.Core, mm *kernel.MM, start pt.VPN, pages int, done func()) {
	k := c.Kernel()
	k.Shootdown(c, mm, start, pages, k.ShootdownTargets(c, mm), done)
}
