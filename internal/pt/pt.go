// Package pt implements an x86-64-style 4-level radix page table at 4 KB
// granularity, with accessed/dirty bits (used by the ABIS baseline) and
// NUMA-hint (PROT_NONE-style) markings used by AutoNUMA sampling.
package pt

import (
	"fmt"

	"latr/internal/mem"
)

// VA is a virtual address.
type VA uint64

// PageShift and friends describe the 4 KB page geometry.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	levelBits = 9
	levelSize = 1 << levelBits // 512 entries per table
)

// VPN is a virtual page number (VA >> PageShift).
type VPN uint64

// PageOf returns the VPN containing va.
func PageOf(va VA) VPN { return VPN(va >> PageShift) }

// Addr returns the base address of a VPN.
func (v VPN) Addr() VA { return VA(v << PageShift) }

// Entry is a leaf PTE. The zero value is a non-present entry.
type Entry struct {
	PFN      mem.PFN
	Present  bool
	Writable bool
	Accessed bool // A bit: set by hardware walk on access
	Dirty    bool // D bit: set by hardware walk on write
	NUMAHint bool // PROT_NONE NUMA-sampling marker (change_prot_numa)
}

// The four levels of the radix tree, each one 4 KB page of 512 slots
// (x86-64's PML4, PDPT, PD and PT): a level holds pointers to the next,
// and only the leaf level holds entries.
type (
	pgd  [levelSize]*pud
	pud  [levelSize]*pmd
	pmd  [levelSize]*leaf
	leaf [levelSize]Entry
)

// PageTable is one address space's table. It also counts structural
// statistics used by the cost model (tables touched on a walk).
type PageTable struct {
	root       *pgd
	mapped     int
	tableCount int

	// huge holds 2 MB mappings keyed by their aligned base VPN (see
	// huge.go).
	huge       map[VPN]Entry
	mappedHuge int
}

// New returns an empty page table.
func New() *PageTable {
	return &PageTable{root: new(pgd), tableCount: 1}
}

// Mapped returns the number of present leaf entries.
func (p *PageTable) Mapped() int { return p.mapped }

// Tables returns the number of allocated table nodes (all levels).
func (p *PageTable) Tables() int { return p.tableCount }

func indexAt(vpn VPN, level int) int {
	// level 0 is the leaf level; level 3 indexes the root.
	return int(vpn>>(uint(level)*levelBits)) & (levelSize - 1)
}

// lookup returns the leaf slot for vpn, or nil when a table on its path
// is missing.
func (p *PageTable) lookup(vpn VPN) *Entry {
	u := p.root[indexAt(vpn, 3)]
	if u == nil {
		return nil
	}
	m := u[indexAt(vpn, 2)]
	if m == nil {
		return nil
	}
	l := m[indexAt(vpn, 1)]
	if l == nil {
		return nil
	}
	return &l[indexAt(vpn, 0)]
}

// slot returns the leaf slot for vpn, building the missing tables on its
// path.
func (p *PageTable) slot(vpn VPN) *Entry {
	u := &p.root[indexAt(vpn, 3)]
	if *u == nil {
		*u = new(pud)
		p.tableCount++
	}
	m := &(*u)[indexAt(vpn, 2)]
	if *m == nil {
		*m = new(pmd)
		p.tableCount++
	}
	l := &(*m)[indexAt(vpn, 1)]
	if *l == nil {
		*l = new(leaf)
		p.tableCount++
	}
	return &(*l)[indexAt(vpn, 0)]
}

// Map installs vpn → pfn. Mapping over a present entry is an error: callers
// must unmap first (mirrors the kernel, where silent remap would leak).
func (p *PageTable) Map(vpn VPN, pfn mem.PFN, writable bool) error {
	e := p.slot(vpn)
	if e.Present {
		return fmt.Errorf("pt: vpn %#x already mapped to pfn %d", uint64(vpn), e.PFN)
	}
	*e = Entry{PFN: pfn, Present: true, Writable: writable}
	p.mapped++
	return nil
}

// Unmap clears the entry for vpn, returning the old entry. ok is false if
// the entry was not present.
func (p *PageTable) Unmap(vpn VPN) (old Entry, ok bool) {
	e := p.lookup(vpn)
	if e == nil || !e.Present {
		return Entry{}, false
	}
	old = *e
	*e = Entry{}
	p.mapped--
	return old, true
}

// Walk performs a hardware page-table walk: it returns the entry and sets
// the accessed (and, for writes, dirty) bit, exactly as the MMU would. A
// non-present or NUMA-hinted entry faults (ok=false); the NUMA-hint case
// returns the entry so the fault handler can see it.
func (p *PageTable) Walk(vpn VPN, write bool) (Entry, bool) {
	e := p.lookup(vpn)
	if e == nil || !e.Present {
		return Entry{}, false
	}
	if e.NUMAHint {
		return *e, false
	}
	if write && !e.Writable {
		return *e, false
	}
	e.Accessed = true
	if write {
		e.Dirty = true
	}
	return *e, true
}

// Get returns the entry without touching A/D bits (a software lookup).
func (p *PageTable) Get(vpn VPN) (Entry, bool) {
	e := p.lookup(vpn)
	if e == nil || !e.Present {
		return Entry{}, false
	}
	return *e, true
}

// SetNUMAHint marks or clears the NUMA-sampling hint on a present entry.
func (p *PageTable) SetNUMAHint(vpn VPN, on bool) bool {
	e := p.lookup(vpn)
	if e == nil || !e.Present {
		return false
	}
	e.NUMAHint = on
	return true
}

// SetProtection updates the writable bit on a present entry (mprotect).
func (p *PageTable) SetProtection(vpn VPN, writable bool) bool {
	e := p.lookup(vpn)
	if e == nil || !e.Present {
		return false
	}
	e.Writable = writable
	return true
}

// Replace atomically swaps the frame backing vpn (page migration) and
// clears A/D bits for the new frame. The old entry is returned.
func (p *PageTable) Replace(vpn VPN, pfn mem.PFN) (Entry, bool) {
	e := p.lookup(vpn)
	if e == nil || !e.Present {
		return Entry{}, false
	}
	old := *e
	*e = Entry{PFN: pfn, Present: true, Writable: old.Writable}
	return old, true
}

// ClearAccessed clears and returns the A bit (ABIS-style sampling).
func (p *PageTable) ClearAccessed(vpn VPN) (was bool, ok bool) {
	e := p.lookup(vpn)
	if e == nil || !e.Present {
		return false, false
	}
	was = e.Accessed
	e.Accessed = false
	return was, true
}

// WalkLevels returns how many table levels a hardware walk of vpn touches
// (for cost modelling): 4 for a full walk of a mapped page; fewer when the
// walk aborts early at a missing interior table.
func (p *PageTable) WalkLevels(vpn VPN) int {
	u := p.root[indexAt(vpn, 3)]
	if u == nil {
		return 1
	}
	m := u[indexAt(vpn, 2)]
	if m == nil {
		return 2
	}
	if m[indexAt(vpn, 1)] == nil {
		return 3
	}
	return 4
}
