package vm

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"latr/internal/pt"
)

func TestReserveDistinct(t *testing.T) {
	s := NewSpace()
	a, err := s.Reserve(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Reserve(4)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || (b >= a && b < a+4) || (a >= b && a < b+4) {
		t.Fatalf("overlapping reservations: %d, %d", a, b)
	}
}

func TestReserveReusesFreed(t *testing.T) {
	s := NewSpace()
	a, _ := s.Reserve(8)
	s.Release(a, 8)
	b, _ := s.Reserve(8)
	if b != a {
		t.Fatalf("freed range not reused: got %d, want %d", b, a)
	}
}

func TestReserveSplitsFreeSpan(t *testing.T) {
	s := NewSpace()
	a, _ := s.Reserve(8)
	s.Release(a, 8)
	b, _ := s.Reserve(3)
	c, _ := s.Reserve(5)
	if b != a || c != a+3 {
		t.Fatalf("split reuse wrong: b=%d c=%d base=%d", b, c, a)
	}
}

func TestFreeListCoalesces(t *testing.T) {
	s := NewSpace()
	a, _ := s.Reserve(4)
	b, _ := s.Reserve(4)
	if b != a+4 {
		t.Fatalf("expected contiguous bump allocations, got %d then %d", a, b)
	}
	s.Release(a, 4)
	s.Release(b, 4) // should merge with the span before it
	c, _ := s.Reserve(8)
	if c != a {
		t.Fatalf("coalesced span not reused: got %d, want %d", c, a)
	}
}

func TestLazyExclusion(t *testing.T) {
	s := NewSpace()
	a, _ := s.Reserve(4)
	s.MarkLazy(4)
	if s.LazyPages() != 4 {
		t.Fatalf("LazyPages = %d", s.LazyPages())
	}
	// The lazy range is not on the free list, so a new reservation must not
	// overlap it.
	b, _ := s.Reserve(4)
	if b == a {
		t.Fatal("lazy range reused before release")
	}
	s.ReleaseLazy(a, 4)
	if s.LazyPages() != 0 {
		t.Fatalf("LazyPages after release = %d", s.LazyPages())
	}
	c, _ := s.Reserve(4)
	if c != a {
		t.Fatalf("released lazy range should be reusable: got %d, want %d", c, a)
	}
}

func TestLazyNegativePanics(t *testing.T) {
	s := NewSpace()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative lazy accounting")
		}
	}()
	s.ReleaseLazy(spaceBase, 1)
}

func TestInsertRejectsOverlap(t *testing.T) {
	s := NewSpace()
	if err := s.Insert(VMA{Start: 10, End: 20}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []VMA{{Start: 15, End: 25}, {Start: 5, End: 11}, {Start: 10, End: 20}, {Start: 12, End: 13}} {
		if err := s.Insert(v); err == nil {
			t.Fatalf("overlap %v accepted", v)
		}
	}
	if err := s.Insert(VMA{Start: 20, End: 30}); err != nil {
		t.Fatalf("adjacent VMA rejected: %v", err)
	}
	if err := s.Insert(VMA{Start: 9, End: 9}); err == nil {
		t.Fatal("empty VMA accepted")
	}
}

func TestFind(t *testing.T) {
	s := NewSpace()
	s.Insert(VMA{Start: 10, End: 20, Kind: File})
	s.Insert(VMA{Start: 30, End: 40})
	if v, ok := s.Find(15); !ok || v.Kind != File {
		t.Fatalf("Find(15) = %v, %v", v, ok)
	}
	if _, ok := s.Find(25); ok {
		t.Fatal("Find in a hole succeeded")
	}
	if _, ok := s.Find(20); ok {
		t.Fatal("Find at exclusive end succeeded")
	}
}

func TestRemoveRangeExact(t *testing.T) {
	s := NewSpace()
	s.Insert(VMA{Start: 10, End: 20})
	removed := s.RemoveRange(nil, 10, 20)
	if len(removed) != 1 || removed[0].Pages() != 10 {
		t.Fatalf("removed = %v", removed)
	}
	if len(s.VMAs()) != 0 {
		t.Fatal("VMA survived exact removal")
	}
}

func TestRemoveRangeSplitsMiddle(t *testing.T) {
	s := NewSpace()
	s.Insert(VMA{Start: 10, End: 30, Writable: true})
	removed := s.RemoveRange(nil, 15, 20)
	if len(removed) != 1 || removed[0].Start != 15 || removed[0].End != 20 {
		t.Fatalf("removed = %v", removed)
	}
	vmas := s.VMAs()
	if len(vmas) != 2 {
		t.Fatalf("VMAs after split = %v", vmas)
	}
	if vmas[0].Start != 10 || vmas[0].End != 15 || vmas[1].Start != 20 || vmas[1].End != 30 {
		t.Fatalf("split boundaries wrong: %v", vmas)
	}
	if !vmas[0].Writable || !vmas[1].Writable {
		t.Fatal("split lost attributes")
	}
}

func TestRemoveRangeSpansMultiple(t *testing.T) {
	s := NewSpace()
	s.Insert(VMA{Start: 10, End: 20})
	s.Insert(VMA{Start: 25, End: 35})
	s.Insert(VMA{Start: 40, End: 50})
	removed := s.RemoveRange(nil, 15, 45)
	total := 0
	for _, v := range removed {
		total += v.Pages()
	}
	if total != 5+10+5 {
		t.Fatalf("removed %d pages: %v", total, removed)
	}
	if s.MappedPages() != 5+5 {
		t.Fatalf("remaining = %d pages", s.MappedPages())
	}
}

func TestRemoveRangeEmptyAndMiss(t *testing.T) {
	s := NewSpace()
	s.Insert(VMA{Start: 10, End: 20})
	if r := s.RemoveRange(nil, 30, 40); len(r) != 0 {
		t.Fatalf("miss removed %v", r)
	}
	if r := s.RemoveRange(nil, 20, 10); len(r) != 0 {
		t.Fatalf("inverted range removed %v", r)
	}
}

func TestPropertySpaceNeverDoubleAllocates(t *testing.T) {
	// Under random reserve/release traffic, live ranges never overlap.
	type op struct {
		N       uint8
		Release bool
		Idx     uint8
	}
	type live struct {
		start pt.VPN
		n     int
	}
	if err := quick.Check(func(ops []op) bool {
		s := NewSpace()
		var lives []live
		for _, o := range ops {
			if o.Release && len(lives) > 0 {
				i := int(o.Idx) % len(lives)
				s.Release(lives[i].start, lives[i].n)
				lives = append(lives[:i], lives[i+1:]...)
				continue
			}
			n := int(o.N%64) + 1
			start, err := s.Reserve(n)
			if err != nil {
				return false
			}
			for _, l := range lives {
				if start < l.start+pt.VPN(l.n) && l.start < start+pt.VPN(n) {
					return false // overlap with a live range
				}
			}
			lives = append(lives, live{start, n})
		}
		return true
	}, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// removeRangeRef is the original RemoveRange — rebuild the whole VMA list,
// then sort it — kept as the reference for the in-place splice.
func removeRangeRef(vmas []VMA, start, end pt.VPN) (out, removed []VMA) {
	if end <= start {
		return vmas, nil
	}
	for _, v := range vmas {
		switch {
		case v.End <= start || v.Start >= end:
			out = append(out, v)
		case v.Start >= start && v.End <= end:
			removed = append(removed, v)
		default:
			mid := v
			if mid.Start < start {
				left := v
				left.End = start
				out = append(out, left)
				mid.Start = start
			}
			if mid.End > end {
				right := v
				right.Start = end
				out = append(out, right)
				mid.End = end
			}
			removed = append(removed, mid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out, removed
}

func TestPropertyRemoveRangeMatchesReference(t *testing.T) {
	// Random Insert/RemoveRange sequences: the spliced VMA list and the
	// removed pieces must match the rebuild-and-sort reference exactly. The
	// pieces are appended after a sentinel to one reused slice, as callers
	// reuse theirs.
	type op struct {
		Remove     bool
		Start, Len uint8
		Writable   bool
		Kind       uint8
	}
	sentinel := VMA{Start: 1 << 20, End: 1<<20 + 1}
	if err := quick.Check(func(ops []op) bool {
		s := NewSpace()
		var ref, dst []VMA
		for _, o := range ops {
			start := pt.VPN(o.Start % 128)
			end := start + pt.VPN(o.Len%32)
			if o.Remove {
				dst = s.RemoveRange(append(dst[:0], sentinel), start, end)
				var want []VMA
				ref, want = removeRangeRef(ref, start, end)
				if dst[0] != sentinel || !slices.Equal(dst[1:], want) {
					return false
				}
			} else if s.Insert(VMA{Start: start, End: end, Writable: o.Writable, Kind: Kind(o.Kind % 3)}) == nil {
				ref = append(ref, VMA{Start: start, End: end, Writable: o.Writable, Kind: Kind(o.Kind % 3)})
				sort.Slice(ref, func(i, j int) bool { return ref[i].Start < ref[j].Start })
			}
			if !slices.Equal(s.VMAs(), ref) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestVMAString(t *testing.T) {
	v := VMA{Start: 1, End: 2, Kind: File}
	if v.String() == "" || v.Kind.String() != "file" {
		t.Fatal("String() broken")
	}
	if Anon.String() != "anon" || Stack.String() != "stack" || Kind(9).String() == "" {
		t.Fatal("Kind.String broken")
	}
}
