// Package vm provides virtual-address-space management: VMA bookkeeping and
// a range allocator with support for LATR's lazy-VA exclusion (a freed
// range must not be handed out again until its TLB entries are provably
// gone — §4.2).
package vm

import (
	"fmt"
	"slices"
	"sort"

	"latr/internal/pt"
)

// Kind classifies a mapping; it only affects workload bookkeeping, not the
// coherence machinery.
type Kind uint8

// VMA kinds.
const (
	Anon Kind = iota
	File
	Stack
)

func (k Kind) String() string {
	switch k {
	case Anon:
		return "anon"
	case File:
		return "file"
	case Stack:
		return "stack"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// VMA is one mapped region, [Start, End) in pages.
type VMA struct {
	Start, End pt.VPN
	Writable   bool
	Kind       Kind
}

// Pages returns the region length in pages.
func (v VMA) Pages() int { return int(v.End - v.Start) }

// Contains reports whether vpn falls inside the region.
func (v VMA) Contains(vpn pt.VPN) bool { return vpn >= v.Start && vpn < v.End }

func (v VMA) String() string {
	return fmt.Sprintf("[%#x,%#x) %s", uint64(v.Start.Addr()), uint64(v.End.Addr()), v.Kind)
}

// Space is one address space: the VMA set plus the range allocator.
// The allocator is a bump pointer with a free list; ranges parked on the
// lazy list (LATR) are excluded from reuse until released.
type Space struct {
	vmas []VMA // sorted by Start, non-overlapping

	next     pt.VPN
	limit    pt.VPN
	freeList []span // reusable, sorted by start

	lazyPages int // pages currently excluded from reuse
}

type span struct {
	start pt.VPN
	pages int
}

// Base and ceiling of the mmap area (48-bit canonical lower half, offset so
// zero is never a valid VPN).
const (
	spaceBase  pt.VPN = 0x10000
	spaceLimit pt.VPN = 1 << 36 // 2^48 bytes of VA
)

// NewSpace returns an empty address space.
func NewSpace() *Space {
	return &Space{next: spaceBase, limit: spaceLimit}
}

// Reserve allocates a fresh range of n pages, preferring the free list.
func (s *Space) Reserve(n int) (pt.VPN, error) {
	if n <= 0 {
		return 0, fmt.Errorf("vm: reserve of %d pages", n)
	}
	for i, f := range s.freeList {
		if f.pages >= n {
			start := f.start
			if f.pages == n {
				s.freeList = append(s.freeList[:i], s.freeList[i+1:]...)
			} else {
				s.freeList[i] = span{f.start + pt.VPN(n), f.pages - n}
			}
			return start, nil
		}
	}
	if s.next+pt.VPN(n) > s.limit {
		return 0, fmt.Errorf("vm: address space exhausted")
	}
	start := s.next
	s.next += pt.VPN(n)
	return start, nil
}

// ReserveAligned allocates n pages whose start VPN is a multiple of
// align (huge mappings need 2 MB-aligned bases). Free-list spans are used
// when an aligned sub-span fits; otherwise the bump pointer is padded up,
// with the pad returned to the free list.
func (s *Space) ReserveAligned(n, align int) (pt.VPN, error) {
	if n <= 0 || align <= 0 {
		return 0, fmt.Errorf("vm: bad aligned reservation (%d pages, align %d)", n, align)
	}
	a := pt.VPN(align)
	for i, f := range s.freeList {
		start := (f.start + a - 1) &^ (a - 1)
		pad := int(start - f.start)
		if pad+n > f.pages {
			continue
		}
		// Carve [start, start+n) out of the span.
		tail := f.pages - pad - n
		s.freeList = append(s.freeList[:i], s.freeList[i+1:]...)
		if pad > 0 {
			s.Release(f.start, pad)
		}
		if tail > 0 {
			s.Release(start+pt.VPN(n), tail)
		}
		return start, nil
	}
	start := (s.next + a - 1) &^ (a - 1)
	if start+pt.VPN(n) > s.limit {
		return 0, fmt.Errorf("vm: address space exhausted")
	}
	if pad := int(start - s.next); pad > 0 {
		s.Release(s.next, pad)
	}
	s.next = start + pt.VPN(n)
	return start, nil
}

// Release returns a range to the allocator for immediate reuse (the
// synchronous-shootdown path: safe because no stale TLB entries remain).
func (s *Space) Release(start pt.VPN, n int) {
	if n <= 0 {
		return
	}
	i := sort.Search(len(s.freeList), func(i int) bool { return s.freeList[i].start >= start })
	s.freeList = append(s.freeList, span{})
	copy(s.freeList[i+1:], s.freeList[i:])
	s.freeList[i] = span{start, n}
	s.coalesce(i)
}

func (s *Space) coalesce(i int) {
	// Merge with successor, then predecessor.
	if i+1 < len(s.freeList) {
		a, b := s.freeList[i], s.freeList[i+1]
		if a.start+pt.VPN(a.pages) == b.start {
			s.freeList[i] = span{a.start, a.pages + b.pages}
			s.freeList = append(s.freeList[:i+1], s.freeList[i+2:]...)
		}
	}
	if i > 0 {
		a, b := s.freeList[i-1], s.freeList[i]
		if a.start+pt.VPN(a.pages) == b.start {
			s.freeList[i-1] = span{a.start, a.pages + b.pages}
			s.freeList = append(s.freeList[:i], s.freeList[i+1:]...)
		}
	}
}

// MarkLazy records that n pages are excluded from reuse (moved to a LATR
// lazy list); ReleaseLazy later makes them reusable. The exclusion is
// structural — the pages simply are not on the free list yet — so a buggy
// early reuse is impossible by construction; the counters exist for the
// §6.4 memory-overhead measurements.
func (s *Space) MarkLazy(n int) { s.lazyPages += n }

// ReleaseLazy returns a previously-lazy range to the free list.
func (s *Space) ReleaseLazy(start pt.VPN, n int) {
	s.lazyPages -= n
	if s.lazyPages < 0 {
		panic("vm: lazy page accounting went negative")
	}
	s.Release(start, n)
}

// LazyPages reports how many pages are currently excluded from reuse.
func (s *Space) LazyPages() int { return s.lazyPages }

// Insert adds a VMA. Overlap with an existing VMA is an error.
func (s *Space) Insert(v VMA) error {
	if v.End <= v.Start {
		return fmt.Errorf("vm: empty VMA %v", v)
	}
	i := sort.Search(len(s.vmas), func(i int) bool { return s.vmas[i].Start >= v.Start })
	if i > 0 && s.vmas[i-1].End > v.Start {
		return fmt.Errorf("vm: %v overlaps %v", v, s.vmas[i-1])
	}
	if i < len(s.vmas) && s.vmas[i].Start < v.End {
		return fmt.Errorf("vm: %v overlaps %v", v, s.vmas[i])
	}
	s.vmas = append(s.vmas, VMA{})
	copy(s.vmas[i+1:], s.vmas[i:])
	s.vmas[i] = v
	return nil
}

// Find returns the VMA containing vpn.
func (s *Space) Find(vpn pt.VPN) (VMA, bool) {
	i := sort.Search(len(s.vmas), func(i int) bool { return s.vmas[i].End > vpn })
	if i < len(s.vmas) && s.vmas[i].Contains(vpn) {
		return s.vmas[i], true
	}
	return VMA{}, false
}

// RemoveRange deletes [start, end) from the VMA set, splitting VMAs that
// straddle the boundary (as munmap does). It appends the removed pieces to
// dst and returns the extended slice, so a caller that passes back its
// previous result, truncated, allocates nothing once it has grown.
// The overlapping window is found by binary search and replaced in place by
// at most two remnants, so the set stays sorted without re-sorting.
func (s *Space) RemoveRange(dst []VMA, start, end pt.VPN) []VMA {
	if end <= start {
		return dst
	}
	lo := sort.Search(len(s.vmas), func(i int) bool { return s.vmas[i].End > start })
	hi := lo + sort.Search(len(s.vmas)-lo, func(i int) bool { return s.vmas[lo+i].Start >= end })
	if lo == hi {
		return dst
	}
	var remnants [2]VMA
	n := 0
	if first := s.vmas[lo]; first.Start < start {
		first.End = start
		remnants[n] = first
		n++
	}
	if last := s.vmas[hi-1]; last.End > end {
		last.Start = end
		remnants[n] = last
		n++
	}
	for _, v := range s.vmas[lo:hi] {
		v.Start = max(v.Start, start)
		v.End = min(v.End, end)
		dst = append(dst, v)
	}
	s.vmas = slices.Replace(s.vmas, lo, hi, remnants[:n]...)
	return dst
}

// VMAs returns a copy of the VMA set, sorted by start.
func (s *Space) VMAs() []VMA {
	out := make([]VMA, len(s.vmas))
	copy(out, s.vmas)
	return out
}

// MappedPages returns the total pages across all VMAs.
func (s *Space) MappedPages() int {
	n := 0
	for _, v := range s.vmas {
		n += v.Pages()
	}
	return n
}
