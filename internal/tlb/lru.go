package tlb

import "math/bits"

// lru is a bounded least-recently-used cache of TLB lines: a doubly-linked
// list threaded through a node slab, indexed by an open-addressed slot
// table. Real TLBs are set-associative; fully-associative LRU is the
// standard simulator simplification and is conservative for the coherence
// questions this model answers (it never caches *fewer* stale entries than
// hardware would).
//
// The index is the lookup hot path, so it is not a Go map: each slot holds
// a slab position plus one (0 is empty), the home slot is a Fibonacci hash
// of the key, collisions probe linearly, and deletion shifts the rest of
// the probe run back instead of leaving tombstones. Every probe compares
// the full Key held in the slab node, so no key field has to fit a bit
// budget. The table is kept at most half full.
//
// Capacity is a limit, not an up-front allocation: the index and the slab
// grow with the lines actually cached, because most machines touch a few
// pages per core. Neither holds pointers — links and slots are slab
// positions — so the garbage collector never scans them and relinking
// costs no write barrier (DESIGN.md §8).
type lru struct {
	cap int
	n   int // lines cached
	// slots is the index: slab position+1 per slot, 0 when empty. Its
	// length is 0 until the first put, then a power of two of at least
	// 2·n, at most 2·nextPow2(cap); shift is 64 − log2(len(slots)).
	slots []int32
	shift uint
	nodes []lruNode // grows by append, up to cap
	head  int32     // most recent, or nilNode
	tail  int32     // least recent, or nilNode
	// free chains slab positions retired by remove/flush through next.
	// They are reused before the slab grows, so invalidate-heavy policies
	// (every shootdown removes lines) refill without allocating.
	free int32
}

type lruNode struct {
	line       Line
	prev, next int32
}

// nilNode is the null link.
const nilNode int32 = -1

// minSlots is the index length on first insert (capped by maxSlots).
const minSlots = 8

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, head: nilNode, tail: nilNode, free: nilNode}
}

func (c *lru) len() int { return c.n }

func (c *lru) contains(k Key) bool { return c.find(k) >= 0 }

// get returns the line and marks it most recently used.
func (c *lru) get(k Key) (Line, bool) {
	s := c.find(k)
	if s < 0 {
		return Line{}, false
	}
	i := c.slots[s] - 1
	c.moveToFront(i)
	return c.nodes[i].line, true
}

// put inserts a line, returning the evicted victim if the cache was full.
// Inserting an existing key updates it in place (no eviction).
func (c *lru) put(ln Line) (victim Line, evicted bool) {
	if s := c.find(ln.Key); s >= 0 {
		i := c.slots[s] - 1
		c.nodes[i].line = ln
		c.moveToFront(i)
		return Line{}, false
	}
	if c.n >= c.cap {
		victim = c.drop(c.find(c.nodes[c.tail].line.Key))
		evicted = true
	}
	if 2*(c.n+1) > len(c.slots) {
		c.grow()
	}
	i := c.newNode(ln)
	c.place(ln.Key, i)
	c.n++
	c.pushFront(i)
	return victim, evicted
}

// remove deletes a key, returning the removed line.
func (c *lru) remove(k Key) (Line, bool) {
	s := c.find(k)
	if s < 0 {
		return Line{}, false
	}
	return c.drop(s), true
}

// each calls fn on every cached line, most recent first; a nil cache
// (an L2 or huge array the TLB does not have) has none.
func (c *lru) each(fn func(Line)) {
	if c == nil {
		return
	}
	for i := c.head; i != nilNode; i = c.nodes[i].next {
		fn(c.nodes[i].line)
	}
}

// removeWhere unlinks every line matching pred in one walk, most recent
// first, handing each removed line to dropped. Neither callback may mutate
// the cache.
func (c *lru) removeWhere(pred func(Line) bool, dropped func(Line)) {
	for i := c.head; i != nilNode; {
		n := &c.nodes[i]
		next := n.next
		if pred(n.line) {
			dropped(c.drop(c.find(n.line.Key)))
		}
		i = next
	}
}

// drop unlinks the node indexed at slot s, empties the slot and retires
// the node to the free chain, returning the line it held.
func (c *lru) drop(s int) Line {
	i := c.slots[s] - 1
	ln := c.nodes[i].line
	c.unlink(i)
	c.unindex(s)
	c.n--
	c.nodes[i].next = c.free
	c.free = i
	return ln
}

// slotHash is the Fibonacci hash of a key's VPN, PCID and VPID; a key's
// home slot is its top log2(len(slots)) bits.
func slotHash(k Key) uint64 {
	x := uint64(k.VPN) ^ uint64(k.Tag.PCID)<<32 ^ uint64(k.Tag.VPID)<<48
	return x * 0x9e3779b97f4a7c15
}

func (c *lru) home(k Key) int { return int(slotHash(k) >> c.shift) }

// find returns the slot indexing k, or -1.
func (c *lru) find(k Key) int {
	if c.n == 0 {
		return -1
	}
	mask := len(c.slots) - 1
	for s := c.home(k); ; s = (s + 1) & mask {
		p := c.slots[s]
		if p == 0 {
			return -1
		}
		if c.nodes[p-1].line.Key == k {
			return s
		}
	}
}

// place indexes slab position i under k, which must be absent, in the
// first empty slot from k's home.
func (c *lru) place(k Key, i int32) {
	mask := len(c.slots) - 1
	s := c.home(k)
	for c.slots[s] != 0 {
		s = (s + 1) & mask
	}
	c.slots[s] = i + 1
}

// unindex empties slot s. Each later entry of the probe run moves back
// into the hole unless its home lies cyclically in (hole, entry], so every
// entry stays reachable from its home without crossing an empty slot.
func (c *lru) unindex(s int) {
	mask := len(c.slots) - 1
	for j := (s + 1) & mask; c.slots[j] != 0; j = (j + 1) & mask {
		p := c.slots[j]
		if (j-c.home(c.nodes[p-1].line.Key))&mask >= (j-s)&mask {
			c.slots[s] = p
			s = j
		}
	}
	c.slots[s] = 0
}

// grow doubles the index (or makes its first minSlots) and re-places
// every cached line.
func (c *lru) grow() {
	old := c.slots
	size := min(max(2*len(old), minSlots), c.maxSlots())
	c.slots = make([]int32, size)
	c.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, p := range old {
		if p != 0 {
			c.place(c.nodes[p-1].line.Key, p-1)
		}
	}
}

// maxSlots is the index length that keeps a full cache at most half full.
func (c *lru) maxSlots() int { return 2 << bits.Len(uint(c.cap-1)) }

func (c *lru) newNode(ln Line) int32 {
	if i := c.free; i != nilNode {
		c.free = c.nodes[i].next
		c.nodes[i].line = ln
		return i
	}
	c.nodes = append(c.nodes, lruNode{line: ln})
	return int32(len(c.nodes) - 1)
}

func (c *lru) pushFront(i int32) {
	n := &c.nodes[i]
	n.prev = nilNode
	n.next = c.head
	if c.head != nilNode {
		c.nodes[c.head].prev = i
	}
	c.head = i
	if c.tail == nilNode {
		c.tail = i
	}
}

func (c *lru) unlink(i int32) {
	n := &c.nodes[i]
	if n.prev != nilNode {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nilNode {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
}

func (c *lru) moveToFront(i int32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}
