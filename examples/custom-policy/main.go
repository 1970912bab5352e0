// Custom policy: the kernel's Policy interface is the extension point the
// whole repository is built around. This example implements a *batching*
// shootdown policy from scratch — it accumulates unmaps and flushes remote
// TLBs with one full-flush IPI burst every N frees (a design point between
// Linux's per-munmap IPIs and LATR's fully lazy sweeps) — and races it
// against the built-in policies on the microbenchmark. It embeds
// latr.SyncDefaults, which supplies the NUMA unmap (the AutoNUMA hint
// prologue, then SyncChange) and hooks that cost nothing, so it writes
// only Name, SyncChange and the Munmap that batches.
//
// Run with: go run ./examples/custom-policy
package main

import (
	"fmt"

	"latr"
	"latr/internal/kernel"
	"latr/internal/pt"
)

// batching groups free-operation shootdowns: every batchSize-th munmap
// broadcasts one full flush covering the whole accumulated batch, and only
// then releases the batch's memory. Correctness argument: memory of a
// batch is only reused after the flush that closes the batch, exactly like
// LATR's invariant but with an IPI instead of a sweep as the closer.
// The kernel's ShootdownTargets and Shootdown supply the synchronous
// protocol, so the policy holds only its batching.
type batching struct {
	latr.SyncDefaults
	batchSize int
	pending   []kernel.Unmap
}

var _ kernel.Policy = (*batching)(nil)

func (b *batching) Name() string { return "batching" }

func (b *batching) Munmap(c *kernel.Core, u kernel.Unmap, done func()) {
	b.pending = append(b.pending, u)
	if len(b.pending) < b.batchSize {
		// Defer: the frames/VA stay held until the batch closes.
		done()
		return
	}
	batch := b.pending
	b.pending = nil
	k := c.Kernel()
	// pages=0 → full flush on the targets: one IPI burst covers the batch.
	k.Shootdown(c, u.MM, 0, 0, k.ShootdownTargets(c, u.MM), func() {
		for _, bu := range batch {
			// ReleaseFrames takes the frame list back for reuse: bu.Frames
			// is not read after this.
			k.ReleaseFrames(bu.Frames)
			if !bu.KeepVMA {
				k.ReleaseVA(bu.MM, bu.Start, bu.Pages)
			}
		}
		done()
	})
}

func (b *batching) SyncChange(c *kernel.Core, mm *kernel.MM, start pt.VPN, pages int, done func()) {
	k := c.Kernel()
	k.Shootdown(c, mm, start, pages, k.ShootdownTargets(c, mm), done)
}

func measure(name string, pol latr.Policy, kind latr.PolicyKind) {
	cfg := latr.Config{Machine: latr.TwoSocket16}
	if pol != nil {
		cfg.CustomPolicy = pol
	} else {
		cfg.Policy = kind
	}
	sys := latr.NewSystem(cfg)
	m := latr.NewMicro(latr.MicroConfig{Cores: 16, Pages: 1, Iters: 150})
	m.Setup(sys.Kernel())
	for sys.Now() < 5*latr.Second && !m.Done() {
		sys.Run(sys.Now() + 10*latr.Millisecond)
	}
	fmt.Printf("  %-10s munmap mean = %v\n", name, sys.Metrics().Hist("munmap.latency").Mean())
}

func main() {
	fmt.Println("munmap microbenchmark, 16 cores, 1 page (mean latency):")
	measure("linux", nil, latr.PolicyLinux)
	measure("batching", &batching{batchSize: 8}, "")
	measure("latr", nil, latr.PolicyLATR)
	fmt.Println("\nBatching amortises the IPI burst over 8 frees but still stalls")
	fmt.Println("every 8th call; LATR removes the wait entirely.")
}
