// Package tlb models per-core translation lookaside buffers.
//
// Each core has an exclusive two-level hierarchy (L1 D-TLB backed by an L2
// STLB victim cache), with entries tagged by (VPID, PCID). The package also
// provides a machine-wide shadow Tracker that counts the TLB lines caching
// each physical frame; the kernel uses it to check the paper's central
// invariant — a physical page is never reused while any TLB still maps it
// (§3, §4.2) — and EntriesOn to read which lines those are.
package tlb

import (
	"cmp"
	"fmt"
	"slices"

	"latr/internal/mem"
	"latr/internal/pt"
	"latr/internal/topo"
)

// PCID is a process-context identifier. PCID 0 is used when PCIDs are
// disabled (as Linux 4.10 elects — §4.5).
type PCID uint16

// VPID is a virtual-processor identifier (VT-x style): entries cached on
// behalf of a guest carry the guest's VPID so host↔guest transitions need
// no flush and the hypervisor can invalidate one VM's translations
// precisely (INVVPID). VPID 0 tags host (bare-metal) entries.
type VPID uint16

// Tag is the full address-space identifier of one TLB entry: the VPID of
// the owning virtual machine (0 for host entries) plus the PCID within
// that context. For guest entries the cached translation is the *combined*
// guest-VA → host-PA mapping, exactly as nested-paging hardware caches it.
type Tag struct {
	VPID VPID
	PCID PCID
}

// Key identifies a TLB entry.
type Key struct {
	Tag Tag
	VPN pt.VPN
}

// Line is a cached translation.
type Line struct {
	Key      Key
	PFN      mem.PFN
	Writable bool
}

// Stats counts TLB events on one core.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Invlpg      uint64 // single-entry invalidations that hit a cached entry
	FullFlushes uint64
	Inserts     uint64
}

// TLB is one core's TLB hierarchy.
type TLB struct {
	core    topo.CoreID
	l1, l2  *lru
	huge    *lru // 2 MB translations (see huge.go), allocated lazily
	tracker *Tracker
	Stats   Stats
}

// New builds a TLB with the given level capacities. tracker may be nil to
// disable shadow tracking (large benchmark runs).
func New(core topo.CoreID, l1Size, l2Size int, tracker *Tracker) *TLB {
	if l1Size <= 0 {
		panic("tlb: L1 size must be positive")
	}
	t := &TLB{core: core, tracker: tracker}
	t.l1 = newLRU(l1Size)
	if l2Size > 0 {
		t.l2 = newLRU(l2Size)
	}
	return t
}

// Core returns the owning core.
func (t *TLB) Core() topo.CoreID { return t.core }

// Lookup consults the hierarchy. On an L2 hit the entry is promoted to L1.
func (t *TLB) Lookup(tag Tag, vpn pt.VPN) (Line, bool) {
	k := Key{tag, vpn}
	if ln, ok := t.l1.get(k); ok {
		t.Stats.Hits++
		return ln, true
	}
	if t.l2 != nil {
		if ln, ok := t.l2.remove(k); ok {
			t.promote(ln)
			t.Stats.Hits++
			return ln, true
		}
	}
	t.Stats.Misses++
	return Line{}, false
}

// Insert caches a translation (after a page walk). An existing entry for
// the same key is replaced.
func (t *TLB) Insert(tag Tag, vpn pt.VPN, pfn mem.PFN, writable bool) {
	t.Stats.Inserts++
	k := Key{tag, vpn}
	// Replace any stale duplicate first so tracker accounting stays exact.
	t.dropKey(k)
	t.promote(Line{Key: k, PFN: pfn, Writable: writable})
	if t.tracker != nil {
		t.tracker.add(pfn)
	}
}

// promote inserts into L1, demoting the L1 victim into L2 (whose victim, if
// any, leaves the hierarchy entirely).
func (t *TLB) promote(ln Line) {
	if victim, evicted := t.l1.put(ln); evicted {
		if t.l2 != nil {
			if v2, e2 := t.l2.put(victim); e2 {
				t.dropped(v2)
			}
		} else {
			t.dropped(victim)
		}
	}
}

func (t *TLB) dropped(ln Line) {
	if t.tracker != nil {
		t.tracker.del(ln.PFN)
	}
}

func (t *TLB) dropKey(k Key) {
	if ln, ok := t.l1.remove(k); ok {
		t.dropped(ln)
		return
	}
	if t.l2 != nil {
		if ln, ok := t.l2.remove(k); ok {
			t.dropped(ln)
		}
	}
}

// Invalidate removes one page's entry (INVLPG), including any huge
// translation covering the address. It reports whether an entry was
// actually cached.
func (t *TLB) Invalidate(tag Tag, vpn pt.VPN) bool {
	k := Key{tag, vpn}
	found := t.invalidateHugeCovering(tag, vpn)
	if ln, ok := t.l1.remove(k); ok {
		t.dropped(ln)
		found = true
	}
	if t.l2 != nil {
		if ln, ok := t.l2.remove(k); ok {
			t.dropped(ln)
			found = true
		}
	}
	if found {
		t.Stats.Invlpg++
	}
	return found
}

// InvalidateRange removes all entries for pages in [startVPN, endVPN),
// including huge translations overlapping the range.
func (t *TLB) InvalidateRange(tag Tag, start, end pt.VPN) int {
	n := 0
	for vpn := start; vpn < end; vpn++ {
		if t.Invalidate(tag, vpn) {
			n++
		}
	}
	if t.huge != nil {
		for base := pt.HugeBase(start); base < end; base += pt.HugePages {
			if t.invalidateHugeCovering(tag, base) {
				n++
			}
		}
	}
	return n
}

// FlushAll empties the hierarchy (CR3 write without PCID preservation).
func (t *TLB) FlushAll() {
	t.Stats.FullFlushes++
	t.flushWhere(func(Line) bool { return true })
}

// FlushTag removes all entries with the given (VPID, PCID) tag — one
// address-space context's translations, leaving every other context alone
// (PCID-preserving CR3 write / INVVPID single-address-space).
func (t *TLB) FlushTag(tag Tag) {
	t.flushWhere(func(ln Line) bool { return ln.Key.Tag == tag })
}

// FlushVPID removes all entries of one virtual machine regardless of PCID
// (INVVPID single-context). FlushVPID(0) drops every host entry while
// preserving all guest translations.
func (t *TLB) FlushVPID(v VPID) {
	t.flushWhere(func(ln Line) bool { return ln.Key.Tag.VPID == v })
}

// flushWhere drops the entries matching pred from every array: L1, then
// L2, then the huge array, each most recent first.
func (t *TLB) flushWhere(pred func(Line) bool) {
	t.l1.removeWhere(pred, t.dropped)
	if t.l2 != nil {
		t.l2.removeWhere(pred, t.dropped)
	}
	if t.huge != nil {
		t.huge.removeWhere(pred, t.droppedHuge)
	}
}

// Len returns the number of cached entries across all arrays.
func (t *TLB) Len() int {
	n := t.l1.len()
	if t.l2 != nil {
		n += t.l2.len()
	}
	if t.huge != nil {
		n += t.huge.len()
	}
	return n
}

// Has reports whether a translation is cached at any level, without
// touching LRU state or stats.
func (t *TLB) Has(tag Tag, vpn pt.VPN) bool {
	k := Key{tag, vpn}
	if t.l1.contains(k) {
		return true
	}
	return t.l2 != nil && t.l2.contains(k)
}

// Tracker is the machine-wide shadow count: for each physical frame, how
// many TLB lines cache it, a huge line counting once for each frame it
// covers. It exists purely for correctness checking; the simulated hardware
// has no such structure (that is UNITD's CAM, which the paper rejects as
// too expensive — §2.2). It keeps no copy of the lines: EntriesOn reads
// them from the TLBs when a caller needs to know which entries they are.
type Tracker struct {
	lines map[mem.PFN]int32
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{lines: make(map[mem.PFN]int32)}
}

func (tr *Tracker) add(pfn mem.PFN) { tr.lines[pfn]++ }

// del uncounts one line caching pfn. Every line a tracked TLB drops was
// counted when it was cached, so a frame without lines is a bookkeeping
// bug.
func (tr *Tracker) del(pfn mem.PFN) {
	switch n := tr.lines[pfn]; n {
	case 0:
		panic(fmt.Sprintf("tlb: frame %d dropped from a TLB that does not cache it", pfn))
	case 1:
		delete(tr.lines, pfn)
	default:
		tr.lines[pfn] = n - 1
	}
}

// Lines returns how many TLB lines currently cache pfn.
func (tr *Tracker) Lines(pfn mem.PFN) int { return int(tr.lines[pfn]) }

// Frames returns how many distinct frames are currently cached somewhere.
func (tr *Tracker) Frames() int { return len(tr.lines) }

// Culprits reads the entries of tlbs, the TLBs sharing this tracker, that
// cache pfn. The count is the oracle and the entries only name it, so a
// count the entries do not match is a bookkeeping bug (a line dropped or
// cached without being counted) and panics, like the allocator's "handed
// out twice".
func (tr *Tracker) Culprits(pfn mem.PFN, tlbs []*TLB) []CachedEntry {
	out := EntriesOn(pfn, tlbs)
	if n := tr.Lines(pfn); len(out) != n {
		panic(fmt.Sprintf("tlb: frame %d counted in %d TLB lines but cached in %d", pfn, n, len(out)))
	}
	return out
}

// CachedEntry identifies one live TLB entry caching a frame: the owning
// core and the (tag, VPN) key to invalidate it precisely.
type CachedEntry struct {
	Core topo.CoreID
	Key  Key
}

// EntriesOn reads every line of tlbs that caches pfn, sorted by core, then
// VPID, PCID and VPN. A huge line is reported at the 4 KB VPN it maps to
// pfn, so invalidating the returned key always removes the entry. HATRIC
// uses this as its per-entry sharer directory; it needs no tracker.
func EntriesOn(pfn mem.PFN, tlbs []*TLB) []CachedEntry {
	var out []CachedEntry
	for _, t := range tlbs {
		base := func(ln Line) {
			if ln.PFN == pfn {
				out = append(out, CachedEntry{t.core, ln.Key})
			}
		}
		t.l1.each(base)
		t.l2.each(base)
		t.huge.each(func(ln Line) {
			if off := pfn - ln.PFN; off < pt.HugePages {
				out = append(out, CachedEntry{t.core, Key{ln.Key.Tag, ln.Key.VPN + pt.VPN(off)}})
			}
		})
	}
	slices.SortFunc(out, func(a, b CachedEntry) int {
		return cmp.Or(
			cmp.Compare(a.Core, b.Core),
			cmp.Compare(a.Key.Tag.VPID, b.Key.Tag.VPID),
			cmp.Compare(a.Key.Tag.PCID, b.Key.Tag.PCID),
			cmp.Compare(a.Key.VPN, b.Key.VPN),
		)
	})
	return out
}
