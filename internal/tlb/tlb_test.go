package tlb

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"

	"latr/internal/mem"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/topo"
)

func newT(l1, l2 int) (*TLB, *Tracker) {
	tr := NewTracker()
	return New(0, l1, l2, tr), tr
}

func TestLookupMissThenHit(t *testing.T) {
	tb, _ := newT(4, 8)
	if _, ok := tb.Lookup(Tag{}, 1); ok {
		t.Fatal("hit on empty TLB")
	}
	tb.Insert(Tag{}, 1, 100, true)
	ln, ok := tb.Lookup(Tag{}, 1)
	if !ok || ln.PFN != 100 || !ln.Writable {
		t.Fatalf("Lookup = %+v, %v", ln, ok)
	}
	if tb.Stats.Hits != 1 || tb.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", tb.Stats)
	}
}

func TestPCIDIsolation(t *testing.T) {
	tb, _ := newT(4, 8)
	tb.Insert(Tag{PCID: 1}, 7, 100, true)
	if _, ok := tb.Lookup(Tag{PCID: 2}, 7); ok {
		t.Fatal("PCID 2 saw PCID 1's entry")
	}
	if _, ok := tb.Lookup(Tag{PCID: 1}, 7); !ok {
		t.Fatal("PCID 1 lost its entry")
	}
}

func TestL1EvictionDemotesToL2(t *testing.T) {
	tb, _ := newT(2, 4)
	tb.Insert(Tag{}, 1, 1, true)
	tb.Insert(Tag{}, 2, 2, true)
	tb.Insert(Tag{}, 3, 3, true) // evicts vpn 1 into L2
	if tb.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tb.Len())
	}
	// vpn 1 should still hit (from L2) and be promoted.
	if _, ok := tb.Lookup(Tag{}, 1); !ok {
		t.Fatal("L2 victim lost")
	}
}

func TestCapacityBound(t *testing.T) {
	tb, tr := newT(4, 8)
	for i := 0; i < 100; i++ {
		tb.Insert(Tag{}, pt.VPN(i), mem.PFN(i), true)
	}
	if tb.Len() != 12 {
		t.Fatalf("Len = %d, want L1+L2 = 12", tb.Len())
	}
	if tr.Frames() != 12 {
		t.Fatalf("tracker frames = %d, want 12 (evictions must untrack)", tr.Frames())
	}
}

func TestInvalidate(t *testing.T) {
	tb, tr := newT(4, 8)
	tb.Insert(Tag{}, 5, 50, true)
	if !tb.Invalidate(Tag{}, 5) {
		t.Fatal("Invalidate missed cached entry")
	}
	if tb.Invalidate(Tag{}, 5) {
		t.Fatal("second Invalidate reported a hit")
	}
	if _, ok := tb.Lookup(Tag{}, 5); ok {
		t.Fatal("entry survived Invalidate")
	}
	if n := tr.Lines(50); n != 0 {
		t.Fatalf("invalidated frame still counted in %d lines", n)
	}
}

func TestInvalidateInL2(t *testing.T) {
	tb, _ := newT(1, 4)
	tb.Insert(Tag{}, 1, 1, true)
	tb.Insert(Tag{}, 2, 2, true) // vpn 1 now in L2
	if !tb.Invalidate(Tag{}, 1) {
		t.Fatal("Invalidate missed L2 entry")
	}
	if tb.Has(Tag{}, 1) {
		t.Fatal("L2 entry survived")
	}
}

func TestInvalidateRange(t *testing.T) {
	tb, _ := newT(16, 16)
	for i := 0; i < 10; i++ {
		tb.Insert(Tag{}, pt.VPN(i), mem.PFN(i), true)
	}
	if n := tb.InvalidateRange(Tag{}, 3, 7); n != 4 {
		t.Fatalf("InvalidateRange removed %d, want 4", n)
	}
	for i := 0; i < 10; i++ {
		want := i < 3 || i >= 7
		if tb.Has(Tag{}, pt.VPN(i)) != want {
			t.Fatalf("vpn %d cached=%v, want %v", i, !want, want)
		}
	}
}

func TestFlushAll(t *testing.T) {
	tb, tr := newT(4, 8)
	for i := 0; i < 10; i++ {
		tb.Insert(Tag{PCID: PCID(i % 3)}, pt.VPN(i), mem.PFN(i), true)
	}
	tb.FlushAll()
	if tb.Len() != 0 {
		t.Fatalf("Len after flush = %d", tb.Len())
	}
	if tr.Frames() != 0 {
		t.Fatalf("tracker frames after flush = %d", tr.Frames())
	}
	if tb.Stats.FullFlushes != 1 {
		t.Fatalf("flush count = %d", tb.Stats.FullFlushes)
	}
}

func TestFlushTag(t *testing.T) {
	tb, _ := newT(8, 8)
	tb.Insert(Tag{PCID: 1}, 1, 1, true)
	tb.Insert(Tag{PCID: 1}, 2, 2, true)
	tb.Insert(Tag{PCID: 2}, 3, 3, true)
	tb.FlushTag(Tag{PCID: 1})
	if tb.Has(Tag{PCID: 1}, 1) || tb.Has(Tag{PCID: 1}, 2) {
		t.Fatal("PCID 1 entries survived FlushTag")
	}
	if !tb.Has(Tag{PCID: 2}, 3) {
		t.Fatal("PCID 2 entry lost by FlushTag")
	}
}

func TestVPIDIsolation(t *testing.T) {
	tb, _ := newT(8, 8)
	host := Tag{}
	guest := Tag{VPID: 3}
	tb.Insert(host, 7, 10, true)
	tb.Insert(guest, 7, 20, true)
	if ln, ok := tb.Lookup(host, 7); !ok || ln.PFN != 10 {
		t.Fatalf("host entry = %+v, %v", ln, ok)
	}
	if ln, ok := tb.Lookup(guest, 7); !ok || ln.PFN != 20 {
		t.Fatalf("guest entry = %+v, %v", ln, ok)
	}
}

func TestFlushVPID(t *testing.T) {
	tb, tr := newT(8, 8)
	tb.Insert(Tag{VPID: 1, PCID: 1}, 1, 1, true)
	tb.Insert(Tag{VPID: 1, PCID: 2}, 2, 2, true)
	tb.Insert(Tag{VPID: 2}, 3, 3, true)
	tb.Insert(Tag{}, 4, 4, true)
	tb.FlushVPID(1)
	if tb.Has(Tag{VPID: 1, PCID: 1}, 1) || tb.Has(Tag{VPID: 1, PCID: 2}, 2) {
		t.Fatal("VPID 1 entries survived FlushVPID(1) across PCIDs")
	}
	if !tb.Has(Tag{VPID: 2}, 3) || !tb.Has(Tag{}, 4) {
		t.Fatal("foreign-VPID entries lost by FlushVPID(1)")
	}
	if n := tr.Lines(1); n != 0 {
		t.Fatalf("flushed frame still counted in %d lines", n)
	}
}

func TestInsertReplacesStaleMapping(t *testing.T) {
	tb, tr := newT(4, 8)
	tb.Insert(Tag{}, 1, 100, true)
	tb.Insert(Tag{}, 1, 200, false) // remapped to a new frame
	ln, ok := tb.Lookup(Tag{}, 1)
	if !ok || ln.PFN != 200 || ln.Writable {
		t.Fatalf("Lookup = %+v", ln)
	}
	if n := tr.Lines(100); n != 0 || tr.Lines(200) != 1 {
		t.Fatalf("replaced frame counted in %d lines, new frame in %d", n, tr.Lines(200))
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d after replace", tb.Len())
	}
}

func TestTrackerCachedOn(t *testing.T) {
	tr := NewTracker()
	a := New(1, 4, 0, tr)
	b := New(2, 4, 0, tr)
	tlbs := []*TLB{a, b}
	a.Insert(Tag{}, 9, 99, true)
	b.Insert(Tag{}, 9, 99, true)
	if cores := coresOf(tr.Culprits(99, tlbs)); len(cores) != 2 {
		t.Fatalf("cached on %v", cores)
	}
	if tr.Lines(99) == 0 {
		t.Fatal("a cached frame counts no lines")
	}
	a.Invalidate(Tag{}, 9)
	b.FlushAll()
	if n := tr.Lines(99); n != 0 || tr.Culprits(99, tlbs) != nil {
		t.Fatalf("frame still counted in %d lines after every TLB dropped it", n)
	}
}

func TestTrackerEntriesOnOrder(t *testing.T) {
	// Entries sort by core, then VPID, PCID and VPN, whatever order they
	// were cached in and whatever order the TLBs are passed in; each core
	// appears once among the culprits' cores.
	tr := NewTracker()
	a := New(2, 8, 0, tr)
	b := New(1, 8, 0, tr)
	a.Insert(Tag{VPID: 1}, 5, 42, true)
	a.Insert(Tag{PCID: 3}, 9, 42, true)
	a.Insert(Tag{PCID: 3}, 4, 42, true)
	b.Insert(Tag{VPID: 2, PCID: 1}, 7, 42, true)
	b.Insert(Tag{VPID: 2}, 8, 42, true)
	want := []CachedEntry{
		{1, Key{Tag{VPID: 2}, 8}},
		{1, Key{Tag{VPID: 2, PCID: 1}, 7}},
		{2, Key{Tag{PCID: 3}, 4}},
		{2, Key{Tag{PCID: 3}, 9}},
		{2, Key{Tag{VPID: 1}, 5}},
	}
	tlbs := []*TLB{a, b}
	if got := EntriesOn(42, tlbs); !slices.Equal(got, want) {
		t.Fatalf("EntriesOn = %v, want %v", got, want)
	}
	if got := coresOf(tr.Culprits(42, tlbs)); !slices.Equal(got, []topo.CoreID{1, 2}) {
		t.Fatalf("cached on %v, want [1 2]", got)
	}
	if EntriesOn(43, tlbs) != nil || tr.Lines(43) != 0 {
		t.Fatal("an uncached frame has entries")
	}
}

func TestEntriesOnHugeLine(t *testing.T) {
	// A huge line is reported at the 4 KB VPN that maps the frame, and
	// invalidating that key removes it; a base line of the same frame is
	// reported beside it.
	tr := NewTracker()
	tb := New(3, 4, 4, tr)
	tag := Tag{PCID: 2}
	tb.InsertHuge(tag, 1024, 4096, true)
	tb.Insert(tag, 7, 4100, true)
	want := []CachedEntry{{3, Key{tag, 7}}, {3, Key{tag, 1028}}}
	if got := tr.Culprits(4100, []*TLB{tb}); !slices.Equal(got, want) {
		t.Fatalf("Culprits = %v, want %v", got, want)
	}
	if tr.Lines(4095) != 0 || tr.Lines(4096) != 1 || tr.Lines(4096+511) != 1 || tr.Lines(4096+512) != 0 {
		t.Fatal("the huge line is not counted on exactly the 512 frames it covers")
	}
	tb.Invalidate(tag, 1028)
	if got := EntriesOn(4100, []*TLB{tb}); !slices.Equal(got, want[:1]) {
		t.Fatalf("after invalidating the huge line's key, EntriesOn = %v, want %v", got, want[:1])
	}
	if tr.Frames() != 1 {
		t.Fatalf("%d frames counted, want the base line's 1", tr.Frames())
	}
}

func TestTrackerCountMismatchPanics(t *testing.T) {
	// A count that the TLBs' lines do not match is a bookkeeping bug.
	tr := NewTracker()
	tb := New(0, 4, 4, tr)
	tb.Insert(Tag{}, 1, 10, true)
	tr.lines[10]++ // a line the TLB does not hold
	defer func() {
		if recover() == nil {
			t.Fatal("Culprits accepted 2 counted lines for 1 cached")
		}
	}()
	tr.Culprits(10, []*TLB{tb})
}

// coresOf returns the distinct cores of entries sorted by core.
func coresOf(entries []CachedEntry) []topo.CoreID {
	var out []topo.CoreID
	for _, e := range entries {
		out = append(out, e.Core)
	}
	return slices.Compact(out)
}

func TestNoL2(t *testing.T) {
	tb, tr := newT(2, 0)
	tb.Insert(Tag{}, 1, 1, true)
	tb.Insert(Tag{}, 2, 2, true)
	tb.Insert(Tag{}, 3, 3, true)
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
	if tr.Frames() != 2 {
		t.Fatalf("tracker = %d frames", tr.Frames())
	}
}

func TestNilTrackerOK(t *testing.T) {
	tb := New(0, 4, 4, nil)
	tb.Insert(Tag{}, 1, 1, true)
	tb.Invalidate(Tag{}, 1)
	tb.FlushAll()
}

func TestLRUOrder(t *testing.T) {
	c := newLRU(3)
	for i := 1; i <= 3; i++ {
		c.put(Line{Key: Key{Tag{}, pt.VPN(i)}, PFN: mem.PFN(i)})
	}
	c.get(Key{Tag{}, 1}) // 1 becomes MRU; LRU is 2
	v, ev := c.put(Line{Key: Key{Tag{}, 4}, PFN: 4})
	if !ev || v.Key.VPN != 2 {
		t.Fatalf("evicted %+v, want vpn 2", v)
	}
}

func TestLRUUpdateInPlace(t *testing.T) {
	c := newLRU(2)
	c.put(Line{Key: Key{Tag{}, 1}, PFN: 1})
	c.put(Line{Key: Key{Tag{}, 1}, PFN: 9})
	if c.len() != 1 {
		t.Fatalf("len = %d", c.len())
	}
	ln, _ := c.get(Key{Tag{}, 1})
	if ln.PFN != 9 {
		t.Fatalf("update lost: %+v", ln)
	}
}

func TestPropertyTrackerMatchesTLBContents(t *testing.T) {
	// After any sequence of inserts, huge inserts, invalidations and
	// flushes on two TLBs sharing one tracker, each frame's count must be
	// exactly the number of lines caching it (a huge line covering 512
	// frames), the tracker must count no other frame, and EntriesOn must
	// read back that many entries, each still cached.
	type op struct {
		Kind, Core, Tag, VPN, PFN uint8
	}
	if err := quick.Check(func(ops []op) bool {
		tr := NewTracker()
		tlbs := []*TLB{New(0, 4, 4, tr), New(1, 2, 0, tr)}
		for _, o := range ops {
			tb := tlbs[o.Core%2]
			tag := Tag{VPID: VPID(o.Tag % 2), PCID: PCID(o.Tag / 2 % 2)}
			vpn := pt.VPN(o.VPN % 40)
			switch o.Kind % 8 {
			case 0, 1, 2:
				tb.Insert(tag, vpn, mem.PFN(o.PFN), true)
			case 3:
				tb.InsertHuge(tag, pt.VPN(o.VPN%2)*pt.HugePages, mem.PFN(o.PFN%4)*64, true)
			case 4:
				tb.Invalidate(tag, vpn)
			case 5:
				tb.FlushTag(tag)
			case 6:
				tb.FlushVPID(tag.VPID)
			case 7:
				if o.VPN%4 == 0 {
					tb.FlushAll()
				}
			}
		}
		return checkTracker(tr, tlbs) == nil
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// checkTracker reports how tr's counts differ from the lines of tlbs.
func checkTracker(tr *Tracker, tlbs []*TLB) error {
	want := map[mem.PFN]int{}
	for _, tb := range tlbs {
		base := func(ln Line) { want[ln.PFN]++ }
		tb.l1.each(base)
		tb.l2.each(base)
		tb.huge.each(func(ln Line) {
			for i := mem.PFN(0); i < pt.HugePages; i++ {
				want[ln.PFN+i]++
			}
		})
	}
	if tr.Frames() != len(want) {
		return fmt.Errorf("tracker counts %d frames, the TLBs cache %d", tr.Frames(), len(want))
	}
	for pfn, n := range want {
		if tr.Lines(pfn) != n {
			return fmt.Errorf("frame %d: tracker counts %d lines, the TLBs hold %d", pfn, tr.Lines(pfn), n)
		}
		entries := EntriesOn(pfn, tlbs)
		if len(entries) != n {
			return fmt.Errorf("frame %d: EntriesOn read %d entries for %d lines", pfn, len(entries), n)
		}
		for _, e := range entries {
			if tb := tlbs[e.Core]; !tb.Has(e.Key.Tag, e.Key.VPN) && !tb.HasHuge(e.Key.Tag, e.Key.VPN) {
				return fmt.Errorf("frame %d: entry %+v is not cached", pfn, e)
			}
		}
	}
	return nil
}

func TestTrackedChurnAllocatesNothing(t *testing.T) {
	// Caching a frame again after its last line was invalidated reuses the
	// count map's slot: a tracked insert/invalidate cycle allocates
	// nothing once the TLB and the map have grown.
	tb, tr := newT(64, 1024)
	tag := Tag{PCID: 1}
	cycle := func() {
		tb.Insert(tag, 7, 8, true)
		tb.Invalidate(tag, 7)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("tracked insert/invalidate allocated %.1f times per cycle, want 0", allocs)
	}
	if tr.Frames() != 0 {
		t.Fatalf("%d frames counted after the cycle", tr.Frames())
	}
}

func TestLRUNodeRecycling(t *testing.T) {
	c := newLRU(4)
	for i := 0; i < 4; i++ {
		c.put(Line{Key: Key{VPN: pt.VPN(i)}, PFN: mem.PFN(i)})
	}
	// Remove everything, then refill: the refill must reuse the retired
	// slab positions rather than grow the slab or allocate.
	for i := 0; i < 4; i++ {
		if _, ok := c.remove(Key{VPN: pt.VPN(i)}); !ok {
			t.Fatalf("remove(%d) missed", i)
		}
	}
	if n := freeNodes(c); n != 4 {
		t.Fatalf("free list holds %d nodes, want 4", n)
	}
	refill := func() {
		for i := 10; i < 14; i++ {
			c.put(Line{Key: Key{VPN: pt.VPN(i)}, PFN: mem.PFN(i)})
		}
	}
	refill()
	if c.free != nilNode {
		t.Fatal("free list not drained by refill")
	}
	if len(c.nodes) != 4 {
		t.Fatalf("slab grew to %d nodes, want 4", len(c.nodes))
	}
	if c.len() != 4 {
		t.Fatalf("len = %d, want 4", c.len())
	}
	// Behaviour unchanged: LRU order and eviction still correct.
	victim, evicted := c.put(Line{Key: Key{VPN: 99}})
	if !evicted || victim.Key.VPN != 10 {
		t.Fatalf("evicted %v (%v), want VPN 10", victim.Key.VPN, evicted)
	}
	// Steady-state churn through the free list allocates nothing.
	allocs := testing.AllocsPerRun(100, func() {
		for i := 10; i < 14; i++ {
			c.remove(Key{VPN: pt.VPN(i)})
		}
		c.remove(Key{VPN: 99})
		refill()
	})
	if allocs != 0 {
		t.Fatalf("refill allocated %.1f times per run, want 0", allocs)
	}
}

// freeNodes counts the slab positions on c's free chain.
func freeNodes(c *lru) int {
	n := 0
	for i := c.free; i != nilNode; i = c.nodes[i].next {
		n++
	}
	return n
}

// lines returns c's lines, most recent first.
func lines(c *lru) []Line {
	var out []Line
	c.each(func(ln Line) { out = append(out, ln) })
	return out
}

// refLRU is the reference model for the differential test: a slice kept in
// recency order, most recent first.
type refLRU struct {
	cap   int
	lines []Line
}

func (r *refLRU) find(k Key) int {
	for i, ln := range r.lines {
		if ln.Key == k {
			return i
		}
	}
	return -1
}

func (r *refLRU) get(k Key) (Line, bool) {
	i := r.find(k)
	if i < 0 {
		return Line{}, false
	}
	ln := r.lines[i]
	copy(r.lines[1:i+1], r.lines[:i])
	r.lines[0] = ln
	return ln, true
}

func (r *refLRU) remove(k Key) (Line, bool) {
	i := r.find(k)
	if i < 0 {
		return Line{}, false
	}
	ln := r.lines[i]
	r.lines = append(r.lines[:i], r.lines[i+1:]...)
	return ln, true
}

func (r *refLRU) put(ln Line) (victim Line, evicted bool) {
	if _, ok := r.remove(ln.Key); !ok && len(r.lines) >= r.cap {
		victim, evicted = r.lines[len(r.lines)-1], true
		r.lines = r.lines[:len(r.lines)-1]
	}
	r.lines = append([]Line{ln}, r.lines...)
	return victim, evicted
}

func (r *refLRU) removeWhere(pred func(Line) bool) []Line {
	var kept, dropped []Line
	for _, ln := range r.lines {
		if pred(ln) {
			dropped = append(dropped, ln)
		} else {
			kept = append(kept, ln)
		}
	}
	r.lines = kept
	return dropped
}

// lruStep applies one operation to c and to the reference and reports how
// their results or states differ. Kinds 0–2 put, 3–4 get, 5 removes, 6
// flushes k's tag and 7 flushes k's VPN parity.
func lruStep(c *lru, ref *refLRU, kind uint8, k Key, pfn uint16) error {
	switch kind % 8 {
	case 0, 1, 2:
		ln := Line{Key: k, PFN: mem.PFN(pfn), Writable: pfn%2 == 0}
		v, ev := c.put(ln)
		if rv, rev := ref.put(ln); v != rv || ev != rev {
			return fmt.Errorf("put %+v evicted %+v %v, want %+v %v", ln, v, ev, rv, rev)
		}
	case 3, 4:
		ln, ok := c.get(k)
		if rln, rok := ref.get(k); ln != rln || ok != rok {
			return fmt.Errorf("get %+v = %+v %v, want %+v %v", k, ln, ok, rln, rok)
		}
	case 5:
		ln, ok := c.remove(k)
		if rln, rok := ref.remove(k); ln != rln || ok != rok {
			return fmt.Errorf("remove %+v = %+v %v, want %+v %v", k, ln, ok, rln, rok)
		}
	case 6, 7:
		pred := func(ln Line) bool { return ln.Key.Tag == k.Tag }
		if kind%8 == 7 {
			pred = func(ln Line) bool { return ln.Key.VPN%2 == k.VPN%2 }
		}
		var got []Line
		c.removeWhere(pred, func(ln Line) { got = append(got, ln) })
		if want := ref.removeWhere(pred); !slices.Equal(got, want) {
			return fmt.Errorf("removeWhere dropped %v, want %v", got, want)
		}
	}
	if c.len() != len(ref.lines) || len(c.nodes) > c.cap ||
		!slices.Equal(lines(c), ref.lines) || c.len()+freeNodes(c) != len(c.nodes) {
		return fmt.Errorf("after op %d on %+v: %d lines in a %d-node slab, want %v", kind%8, k, c.len(), len(c.nodes), ref.lines)
	}
	return checkIndex(c)
}

// indexLimit is the longest slot table a cache of the given capacity may
// have: 2·nextPow2(capacity), which keeps it at most half full.
func indexLimit(capacity int) int {
	n := 1
	for n < capacity {
		n *= 2
	}
	return 2 * n
}

// checkIndex reports how c's slot table breaks its invariants: nil until
// the first put, then a power-of-two length of at least twice the line
// count and at most indexLimit(cap), one occupied slot per cached line,
// and every cached line found at the slot holding its own slab position.
func checkIndex(c *lru) error {
	size := len(c.slots)
	if size == 0 {
		if c.slots != nil || len(c.nodes) != 0 {
			return fmt.Errorf("index is %v with %d slab nodes", c.slots, len(c.nodes))
		}
		return nil
	}
	if size&(size-1) != 0 || size < 2*c.len() || size > indexLimit(c.cap) {
		return fmt.Errorf("%d slots for %d lines at capacity %d", size, c.len(), c.cap)
	}
	occupied := 0
	for _, p := range c.slots {
		if p != 0 {
			occupied++
		}
	}
	if occupied != c.len() {
		return fmt.Errorf("%d occupied slots for %d lines", occupied, c.len())
	}
	for i := c.head; i != nilNode; i = c.nodes[i].next {
		k := c.nodes[i].line.Key
		if s := c.find(k); s < 0 || c.slots[s] != i+1 {
			return fmt.Errorf("key %+v at slab position %d not found by the index (slot %d)", k, i, s)
		}
	}
	return nil
}

// keysHomedAt returns the first n keys of the given tag, by VPN, whose
// home slot in a table of the given power-of-two size is one of slots.
func keysHomedAt(tag Tag, size, n int, slots ...int) []Key {
	shift := 64 - bits.TrailingZeros(uint(size))
	var out []Key
	for vpn := pt.VPN(0); len(out) < n; vpn++ {
		k := Key{tag, vpn}
		if slices.Contains(slots, int(slotHash(k)>>shift)) {
			out = append(out, k)
		}
	}
	return out
}

func TestPropertyLRUMatchesReference(t *testing.T) {
	// Random put/get/remove/flush sequences must produce the same hits,
	// victims, removed lines and recency order as the reference list.
	type op struct {
		Kind uint8
		VPN  uint8
		PCID uint8
		PFN  uint16
	}
	if err := quick.Check(func(capRaw uint8, ops []op) bool {
		capacity := int(capRaw%8) + 1
		c, ref := newLRU(capacity), &refLRU{cap: capacity}
		for _, o := range ops {
			k := Key{Tag{PCID: PCID(o.PCID % 3)}, pt.VPN(o.VPN % 16)}
			if lruStep(c, ref, o.Kind, k, o.PFN) != nil {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyLRUIndexMatchesReference(t *testing.T) {
	// The slot table at the sizes and key shapes the small quick check
	// never reaches: capacities whose index doubles from 8 slots up to
	// 4096, keys that share a home slot at the table's end so their probe
	// runs wrap past slot 0 (and deletion must shift entries back across
	// it), and extreme tag and VPN values that must round-trip. Each case
	// fills the cache past capacity, runs random operations with few
	// flushes, then removes every key, checking against the reference and
	// the index invariants after every step.
	extreme := []Key{
		{Tag{VPID: 0xffff, PCID: 0xffff}, 0},
		{Tag{VPID: 0xffff, PCID: 0xffff}, 1 << 36},
		{Tag{VPID: 0xffff}, 1 << 36},
		{Tag{PCID: 0xffff}, 1 << 36},
		{Tag{}, 1 << 36},
		{Tag{VPID: 0xffff, PCID: 0xffff}, ^pt.VPN(0)},
		{Tag{}, ^pt.VPN(0)},
		{Tag{VPID: 1}, 1<<63 | 5},
		{Tag{PCID: 1}, 1<<63 | 5},
		{Tag{VPID: 0x8000, PCID: 0x7fff}, 1<<40 + 3},
	}
	type testCase struct {
		name     string
		capacity int
		keys     []Key
	}
	var cases []testCase
	for _, capacity := range []int{1, 2, 3, 8, 9, 64, 65, 512, 513, 1024, 1100} {
		var keys []Key
		for vpn := pt.VPN(0); len(keys) < capacity+capacity/4+4; vpn++ {
			keys = append(keys, Key{Tag{PCID: PCID(vpn % 2)}, vpn / 2})
		}
		cases = append(cases, testCase{fmt.Sprintf("grow/cap%d", capacity), capacity, keys})
	}
	for _, capacity := range []int{3, 4, 16, 64} {
		size := indexLimit(capacity)
		keys := keysHomedAt(Tag{PCID: 1}, size, capacity+2, size-2, size-1)
		keys = append(keys, keysHomedAt(Tag{PCID: 1}, size, capacity/2+1, 0, 1)...)
		cases = append(cases, testCase{fmt.Sprintf("wrap/cap%d", capacity), capacity, keys})
	}
	cases = append(cases,
		testCase{"extreme/cap4", 4, extreme},
		testCase{"extreme/cap8", 8, extreme})

	for seed, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := sim.NewRand(uint64(seed) + 1)
			c, ref := newLRU(tc.capacity), &refLRU{cap: tc.capacity}
			if err := checkIndex(c); err != nil {
				t.Fatal(err)
			}
			sizes := map[int]bool{}
			step := func(kind uint8, k Key) {
				t.Helper()
				if err := lruStep(c, ref, kind, k, uint16(rng.Intn(1<<16))); err != nil {
					t.Fatal(err)
				}
				sizes[len(c.slots)] = true
			}
			for _, i := range rng.Perm(len(tc.keys)) {
				step(0, tc.keys[i])
			}
			for n := 0; n < 4*len(tc.keys)+200; n++ {
				kind := uint8(rng.Intn(6)) // put, get or remove
				if rng.Intn(100) == 0 {
					kind = uint8(6 + rng.Intn(2)) // a flush
				}
				step(kind, tc.keys[rng.Intn(len(tc.keys))])
			}
			for _, k := range tc.keys {
				step(5, k)
			}
			if c.len() != 0 {
				t.Fatalf("%d lines left after removing every key", c.len())
			}
			// The fill put more keys than fit, so the index grew through
			// every size up to its limit.
			for size := min(minSlots, indexLimit(tc.capacity)); size <= indexLimit(tc.capacity); size *= 2 {
				if !sizes[size] {
					t.Errorf("index never had %d slots (saw %v)", size, sizes)
				}
			}
		})
	}
}

func TestLRUIndexWrapDeletion(t *testing.T) {
	// Three keys homed at the last of 8 slots fill slots 7, 0 and 1, each
	// slot holding its key's slab position plus one (1, 2, 3 in put
	// order). Removing the first must shift the other two back across
	// slot 0, or neither is reachable from its home any more.
	c := newLRU(4)
	keys := keysHomedAt(Tag{}, 8, 3, 7)
	for _, k := range keys {
		c.put(Line{Key: k})
	}
	if want := []int32{2, 3, 0, 0, 0, 0, 0, 1}; !slices.Equal(c.slots, want) {
		t.Fatalf("slots = %v, want %v", c.slots, want)
	}
	c.remove(keys[0])
	if want := []int32{3, 0, 0, 0, 0, 0, 0, 2}; !slices.Equal(c.slots, want) {
		t.Fatalf("slots = %v after removing slot 7's key, want %v", c.slots, want)
	}
	if err := checkIndex(c); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkTLBInsertInvalidateChurn runs with the shadow tracker on, so
// every fill and invalidation also moves a frame's line count. It
// allocates nothing once the count map has grown
// (TestTrackedChurnAllocatesNothing pins that); the two benchmarks below
// measure the TLB alone, without a tracker.
func BenchmarkTLBInsertInvalidateChurn(b *testing.B) {
	tb, _ := newT(64, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vpn := pt.VPN(i % 512)
		tb.Insert(Tag{PCID: 1}, vpn, mem.PFN(vpn)+1, true)
		if i%4 == 3 {
			tb.InvalidateRange(Tag{PCID: 1}, vpn-3, vpn+1)
		}
	}
}

// BenchmarkTLBLookupHit is canneal's shape: a warm 64/1024 TLB without a
// tracker, and lookups that cycle over resident pages, every one an L1
// hit and none at the L1 head.
func BenchmarkTLBLookupHit(b *testing.B) {
	const pages = 64
	tb := New(0, 64, 1024, nil)
	tag := Tag{PCID: 1}
	for vpn := pt.VPN(0); vpn < pages; vpn++ {
		tb.Insert(tag, vpn, mem.PFN(vpn)+1, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tb.Lookup(tag, pt.VPN(i%pages)); !ok {
			b.Fatal("resident page missed")
		}
	}
}

// BenchmarkTLBMissInsertInvalidate is apache's shape: a full 64/1024 TLB
// without a tracker, and for each fresh page a miss, an Insert and an
// InvalidateRange that removes it again.
func BenchmarkTLBMissInsertInvalidate(b *testing.B) {
	tb := New(0, 64, 1024, nil)
	tag := Tag{PCID: 1}
	for vpn := pt.VPN(0); vpn < 64+1024; vpn++ {
		tb.Insert(tag, vpn, mem.PFN(vpn)+1, true)
	}
	fresh := pt.VPN(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vpn := fresh + pt.VPN(i)
		if _, ok := tb.Lookup(tag, vpn); ok {
			b.Fatal("fresh page hit")
		}
		tb.Insert(tag, vpn, mem.PFN(vpn), true)
		if tb.InvalidateRange(tag, vpn, vpn+1) != 1 {
			b.Fatal("fresh page not invalidated")
		}
	}
}
