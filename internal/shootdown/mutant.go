package shootdown

import (
	"fmt"
	"strings"

	"latr/internal/kernel"
	"latr/internal/obs"
	"latr/internal/pt"
	"latr/internal/topo"
)

// Mutant is a deliberately broken variant of the Linux baseline used to
// prove the litmus differential oracle actually detects coherence bugs
// (oracle-sensitivity testing): each Mutation disables exactly one piece of
// the protocol, and the corresponding oracle check — auditor violation,
// fault-count divergence, or frame accounting — must fire. Never use a
// mutant outside negative tests.
type Mutation string

// The injected bug classes.
const (
	// MutEarlyFree frees frames and VA at munmap time without any remote
	// coherence — remote cores keep stale translations to reusable frames.
	// Detected by the auditor (frame-reuse / stale-use violations).
	MutEarlyFree Mutation = "early-free"
	// MutSkipSyncInval completes mprotect/CoW/mremap sync changes without
	// invalidating remote TLBs — stale-writable entries let writes bypass
	// new protections. Detected by fault-count divergence from the model.
	MutSkipSyncInval Mutation = "skip-sync-inval"
	// MutLeakFrames performs correct coherence but never releases the
	// unmapped frames or VA. Detected by frame accounting (kernel frames in
	// use exceed the model's).
	MutLeakFrames Mutation = "leak-frames"
	// MutSkipOneTarget drops the highest-numbered core from the IPI set of
	// every munmap and sync-change shootdown — one core's TLB silently
	// stays stale. Detected by the auditor when the freed frame is
	// reallocated.
	MutSkipOneTarget Mutation = "skip-one-target"
	// MutSkipHostInval is a two-level bug: when the hypervisor reclaims EPT
	// backings (ballooning / host swap-out), the backing frames are freed
	// without invalidating the combined gVA→hPA TLB entries. Detected by the
	// auditor (stale-use / frame-reuse through the freed host frame).
	MutSkipHostInval Mutation = "skip-host-inval"
	// MutLeakEPT is a two-level bug: host-level invalidation runs correctly
	// but the reclaimed backing frames are never returned to the host
	// allocator. Detected by two-level frame accounting (host frames in use
	// exceed the flat model's prediction).
	MutLeakEPT Mutation = "leak-ept"
)

// Mutations lists every mutation class, for exhaustive sensitivity tests.
func Mutations() []Mutation {
	return []Mutation{MutEarlyFree, MutSkipSyncInval, MutLeakFrames, MutSkipOneTarget, MutSkipHostInval, MutLeakEPT}
}

// Mutant wraps the Linux policy with one seeded bug. Each mutation stays
// on the path its doc names: the defaults Linux embeds would route the
// munmap and NUMA unmap through the mutated SyncChange, so the munmap is
// Linux's own unless a mutation names it, and the NUMA unmap is Linux's.
type Mutant struct {
	Linux
	mut Mutation
}

var _ kernel.Policy = (*Mutant)(nil)

// NewMutant builds the mutant policy for one bug class.
func NewMutant(mut Mutation) (kernel.Policy, error) {
	switch mut {
	case MutEarlyFree, MutSkipSyncInval, MutLeakFrames, MutSkipOneTarget,
		MutSkipHostInval, MutLeakEPT:
		return &Mutant{mut: mut}, nil
	}
	var names []string
	for _, m := range Mutations() {
		names = append(names, string(m))
	}
	return nil, fmt.Errorf("shootdown: unknown mutation %q (have %s)", mut, strings.Join(names, ", "))
}

// Name implements kernel.Policy.
func (p *Mutant) Name() string { return "mutant:" + string(p.mut) }

// HostMode implements kernel.HostCoherent: the two nested mutations seed
// their bug into the hypervisor's reclaim path; every other mutant keeps the
// host level correct (and synchronous) so single-level oracles stay clean.
func (p *Mutant) HostMode() kernel.HostMode {
	switch p.mut {
	case MutSkipHostInval:
		return kernel.HostSkipInval
	case MutLeakEPT:
		return kernel.HostLeakEPT
	}
	return kernel.HostSync
}

// Munmap implements kernel.Policy with the mutation applied.
func (p *Mutant) Munmap(c *kernel.Core, u kernel.Unmap, done func()) {
	k := c.Kernel()
	switch p.mut {
	case MutEarlyFree:
		// Free everything immediately; no remote invalidation at all.
		k.ReleaseFrames(u.Frames)
		if !u.KeepVMA {
			k.ReleaseVA(u.MM, u.Start, u.Pages)
		}
		u.Span.Mark(obs.PhaseReclaim, c.ID, k.Now(), 0)
		done()
	case MutLeakFrames:
		// Correct coherence, but the frames and VA are never released.
		k.Shootdown(c, u.MM, u.Start, u.Pages, k.ShootdownTargets(c, u.MM), done)
	case MutSkipOneTarget:
		// The defaults' munmap: the mutated SyncChange, then the free.
		p.Linux.Munmap(c, u, done)
	default:
		k.ShootdownAndFree(c, u, k.ShootdownTargets(c, u.MM), done)
	}
}

// NUMAUnmap implements kernel.Policy as Linux's, with no mutation: the
// hint prologue, then Linux's SyncChange.
func (p *Mutant) NUMAUnmap(c *kernel.Core, mm *kernel.MM, start pt.VPN, pages int, done func()) {
	c.Busy(c.Kernel().MarkNUMAHints(c, mm, start, pages), true, func() {
		p.Linux.SyncChange(c, mm, start, pages, done)
	})
}

// SyncChange implements kernel.Policy with the mutation applied.
func (p *Mutant) SyncChange(c *kernel.Core, mm *kernel.MM, start pt.VPN, pages int, done func()) {
	switch p.mut {
	case MutSkipSyncInval:
		// Pretend the remote TLBs were invalidated.
		done()
	case MutSkipOneTarget:
		k := c.Kernel()
		k.Shootdown(c, mm, start, pages, dropHighestCore(k.ShootdownTargets(c, mm)), done)
	default:
		p.Linux.SyncChange(c, mm, start, pages, done)
	}
}

// dropHighestCore removes the highest-numbered core from the target set —
// a deterministic "forgot one CPU" bug.
func dropHighestCore(targets topo.CoreMask) topo.CoreMask {
	highest := topo.CoreID(-1)
	targets.ForEach(func(id topo.CoreID) { highest = id })
	if highest >= 0 {
		targets.Clear(highest)
	}
	return targets
}
