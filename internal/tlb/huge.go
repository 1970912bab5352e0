package tlb

import (
	"latr/internal/mem"
	"latr/internal/pt"
)

// Huge-page TLB support: real cores keep a separate (small) array for
// 2 MB translations; this models it as a dedicated fully-associative LRU.
// One huge entry covers 512 base pages, so a single stale huge entry is
// 512 pages of incoherence — which is why §7 calls out THP support as an
// extension requiring care.

// hugeEntries is the per-core 2 MB-translation array size (Haswell-class).
const hugeEntries = 32

// LookupHuge consults the huge array for the 2 MB translation covering
// vpn. The returned line's PFN is the *base* frame of the huge page.
func (t *TLB) LookupHuge(tag Tag, vpn pt.VPN) (Line, bool) {
	if t.huge == nil {
		return Line{}, false
	}
	k := Key{tag, pt.HugeBase(vpn)}
	if ln, ok := t.huge.get(k); ok {
		t.Stats.Hits++
		return ln, true
	}
	return Line{}, false
}

// InsertHuge caches a 2 MB translation (base VPN → base PFN).
func (t *TLB) InsertHuge(tag Tag, base pt.VPN, pfn mem.PFN, writable bool) {
	if t.huge == nil {
		t.huge = newLRU(hugeEntries)
	}
	t.Stats.Inserts++
	k := Key{tag, pt.HugeBase(base)}
	if old, ok := t.huge.remove(k); ok {
		t.droppedHuge(old)
	}
	if victim, evicted := t.huge.put(Line{Key: k, PFN: pfn, Writable: writable}); evicted {
		t.droppedHuge(victim)
	}
	if t.tracker != nil {
		for i := mem.PFN(0); i < pt.HugePages; i++ {
			t.tracker.add(pfn + i)
		}
	}
}

func (t *TLB) droppedHuge(ln Line) {
	if t.tracker == nil {
		return
	}
	for i := mem.PFN(0); i < pt.HugePages; i++ {
		t.tracker.del(ln.PFN + i)
	}
}

// invalidateHugeCovering removes the huge translation covering vpn, if
// cached (INVLPG invalidates any translation for the address).
func (t *TLB) invalidateHugeCovering(tag Tag, vpn pt.VPN) bool {
	if t.huge == nil {
		return false
	}
	if ln, ok := t.huge.remove(Key{tag, pt.HugeBase(vpn)}); ok {
		t.droppedHuge(ln)
		return true
	}
	return false
}

// HasHuge reports whether the 2 MB translation covering vpn is cached.
func (t *TLB) HasHuge(tag Tag, vpn pt.VPN) bool {
	if t.huge == nil {
		return false
	}
	return t.huge.contains(Key{tag, pt.HugeBase(vpn)})
}
