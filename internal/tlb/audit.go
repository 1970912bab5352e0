package tlb

import (
	"fmt"
	"slices"
	"strings"

	"latr/internal/mem"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/topo"
)

// ViolationKind classifies a coherence-invariant breach.
type ViolationKind string

// The invariant classes the audit layer distinguishes.
const (
	// ViolationFrameReuse: a physical frame was handed back out by the
	// allocator while some core's TLB still cached a translation to it —
	// the central §4.2 invariant.
	ViolationFrameReuse ViolationKind = "frame-reuse"
	// ViolationStaleUse: a memory access went through a TLB entry whose
	// backing frame has already been freed (the window between an unsafe
	// reclaim and the frame's next allocation).
	ViolationStaleUse ViolationKind = "stale-use"
	// ViolationLeakedState: a LATR state stayed active far beyond any
	// legitimate sweep horizon — some core's bitmask bit is never clearing.
	ViolationLeakedState ViolationKind = "leaked-state"
	// ViolationLostWaiter: a migration-gated fault continuation was never
	// released (its state deactivated without draining waiters, or the
	// state leaked with waiters attached).
	ViolationLostWaiter ViolationKind = "lost-waiter"
)

// Violation is one structured audit finding. Time/Core/VPN/PFN identify the
// first occurrence; Detail carries provenance (which state, which mask bits
// were outstanding, how old it was). Repeats of the same (Kind, Core, VPN,
// PFN) key only bump Occurrences so floods stay readable.
type Violation struct {
	Kind        ViolationKind
	Time        sim.Time // virtual time of the first occurrence
	Core        topo.CoreID
	VPN         pt.VPN
	PFN         mem.PFN
	Detail      string
	Occurrences int
}

func (v Violation) String() string {
	return fmt.Sprintf("%-13s t=%-12v core=%-3d vpn=%#x pfn=%d x%d  %s",
		v.Kind, v.Time, int(v.Core), uint64(v.VPN.Addr()), uint64(v.PFN), v.Occurrences, v.Detail)
}

// Auditor collects structured coherence violations instead of panicking,
// so a chaos run can complete and report every breach with its provenance.
// It deduplicates by (Kind, Core, VPN, PFN) and keeps first-occurrence
// order, which makes reports byte-identical across replays of a seed.
type Auditor struct {
	violations []Violation
	index      map[auditKey]int
	limit      int
	total      uint64
}

type auditKey struct {
	kind ViolationKind
	core topo.CoreID
	vpn  pt.VPN
	pfn  mem.PFN
}

// NewAuditor returns an auditor keeping at most limit distinct violations
// (0 means unlimited). Occurrence counting continues past the limit.
func NewAuditor(limit int) *Auditor {
	return &Auditor{index: make(map[auditKey]int), limit: limit}
}

// Report records one violation occurrence.
func (a *Auditor) Report(v Violation) {
	a.total++
	k := auditKey{v.Kind, v.Core, v.VPN, v.PFN}
	if i, ok := a.index[k]; ok {
		a.violations[i].Occurrences++
		return
	}
	if a.limit > 0 && len(a.violations) >= a.limit {
		return
	}
	v.Occurrences = 1
	a.index[k] = len(a.violations)
	a.violations = append(a.violations, v)
}

// Violations returns the distinct violations in first-occurrence order.
func (a *Auditor) Violations() []Violation {
	out := make([]Violation, len(a.violations))
	copy(out, a.violations)
	return out
}

// Len reports the number of distinct violations recorded.
func (a *Auditor) Len() int { return len(a.violations) }

// Total reports every occurrence, including deduplicated repeats.
func (a *Auditor) Total() uint64 { return a.total }

// CountKind reports distinct violations of one kind.
func (a *Auditor) CountKind(kind ViolationKind) int {
	n := 0
	for _, v := range a.violations {
		if v.Kind == kind {
			n++
		}
	}
	return n
}

// Kinds returns the distinct kinds present, sorted.
func (a *Auditor) Kinds() []ViolationKind {
	var out []ViolationKind
	for _, v := range a.violations {
		out = append(out, v.Kind)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Render formats the full report, one violation per line, in
// first-occurrence order. Identical runs render identical reports.
func (a *Auditor) Render() string {
	var b strings.Builder
	for _, v := range a.violations {
		b.WriteString(v.String())
		b.WriteByte('\n')
	}
	return b.String()
}
