package kernel

import (
	"latr/internal/pt"
	"latr/internal/vm"
)

// Architectural state export for the differential oracle (internal/litmus):
// a snapshot is the converged, policy-independent view of one address space
// — which virtual pages are backed, with what protection — that every
// coherence policy must agree on once its lazy machinery has drained.

// PresentPage is one live translation in an MMSnapshot, expanded to 4 KB
// granularity (a 2 MB mapping contributes 512 entries flagged Huge so the
// per-page view is uniform across page sizes).
type PresentPage struct {
	VPN      pt.VPN
	Writable bool
	Huge     bool
}

// MMSnapshot is the architectural snapshot of one address space.
type MMSnapshot struct {
	ID   int
	VMAs []vm.VMA
	// Pages lists every present translation under a VMA, in ascending VPN
	// order.
	Pages []PresentPage
	// LazyPages counts VA pages still excluded from reuse (LATR's lazy-VA
	// parking); a drained system has zero.
	LazyPages int
	// Orphans counts present page-table entries not covered by any VMA —
	// mappings leaked past their region teardown. Always zero on a healthy
	// kernel.
	Orphans int
	// ReplReplicas and ReplStale count live per-socket page-table
	// replicas and still-parked replica invalidations (internal/ptrepl).
	// A drained address space has zero stale entries; a torn-down one has
	// zero replicas — the replica-consistency invariants the litmus
	// runner checks at end of run.
	ReplReplicas int
	ReplStale    int
}

// SnapshotMM captures the architectural state of mm: VMA layout, every
// present translation under those VMAs, and the leak counters. It reads
// kernel state without advancing time, so it is safe to call between runs
// or after the event loop goes quiet.
func (k *Kernel) SnapshotMM(mm *MM) MMSnapshot {
	s := MMSnapshot{ID: mm.ID, VMAs: mm.Space.VMAs(), LazyPages: mm.Space.LazyPages()}
	counted4k := 0
	countedHuge := make(map[pt.VPN]bool)
	for _, v := range s.VMAs {
		for vpn := v.Start; vpn < v.End; vpn++ {
			if he, ok := mm.PT.GetHuge(vpn); ok {
				s.Pages = append(s.Pages, PresentPage{VPN: vpn, Writable: he.Writable, Huge: true})
				countedHuge[pt.HugeBase(vpn)] = true
				continue
			}
			if e, ok := mm.PT.Get(vpn); ok && e.Present {
				s.Pages = append(s.Pages, PresentPage{VPN: vpn, Writable: e.Writable})
				counted4k++
			}
		}
	}
	s.Orphans = (mm.PT.Mapped() - counted4k) +
		(mm.PT.MappedHuge()-len(countedHuge))*pt.HugePages
	s.ReplReplicas, s.ReplStale = k.replSnapshot(mm)
	return s
}
