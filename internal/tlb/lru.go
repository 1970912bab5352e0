package tlb

// lru is a bounded least-recently-used cache of TLB lines, implemented as a
// hash map over a doubly-linked list threaded through a node slab. Real
// TLBs are set-associative; fully-associative LRU is the standard simulator
// simplification and is conservative for the coherence questions this model
// answers (it never caches *fewer* stale entries than hardware would).
//
// Capacity is a limit, not an up-front allocation: the index and the slab
// grow with the lines actually cached, because most machines touch a few
// pages per core. Nodes hold no pointers — links are slab positions — so
// the garbage collector never scans the slab and relinking costs no write
// barrier (DESIGN.md §8).
type lru struct {
	cap   int
	items map[Key]int32 // key → slab position
	nodes []lruNode     // grows by append, up to cap
	head  int32         // most recent, or nilNode
	tail  int32         // least recent, or nilNode
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

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, items: make(map[Key]int32), head: nilNode, tail: nilNode, free: nilNode}
}

func (c *lru) len() int { return len(c.items) }

func (c *lru) contains(k Key) bool {
	_, ok := c.items[k]
	return ok
}

// get returns the line and marks it most recently used.
func (c *lru) get(k Key) (Line, bool) {
	i, ok := c.items[k]
	if !ok {
		return Line{}, false
	}
	c.moveToFront(i)
	return c.nodes[i].line, true
}

// put inserts a line, returning the evicted victim if the cache was full.
// Inserting an existing key updates it in place (no eviction).
func (c *lru) put(ln Line) (victim Line, evicted bool) {
	if i, ok := c.items[ln.Key]; ok {
		c.nodes[i].line = ln
		c.moveToFront(i)
		return Line{}, false
	}
	if len(c.items) >= c.cap {
		victim = c.drop(c.tail)
		evicted = true
	}
	i := c.newNode(ln)
	c.items[ln.Key] = i
	c.pushFront(i)
	return victim, evicted
}

// remove deletes a key, returning the removed line.
func (c *lru) remove(k Key) (Line, bool) {
	i, ok := c.items[k]
	if !ok {
		return Line{}, false
	}
	return c.drop(i), true
}

// removeWhere unlinks every line matching pred in one walk, most recent
// first, handing each removed line to dropped. Neither callback may mutate
// the cache.
func (c *lru) removeWhere(pred func(Line) bool, dropped func(Line)) {
	for i := c.head; i != nilNode; {
		n := &c.nodes[i]
		next := n.next
		if pred(n.line) {
			dropped(c.drop(i))
		}
		i = next
	}
}

// drop unlinks node i, removes it from the index and retires it to the
// free chain, returning the line it held.
func (c *lru) drop(i int32) Line {
	ln := c.nodes[i].line
	c.unlink(i)
	delete(c.items, ln.Key)
	c.nodes[i].next = c.free
	c.free = i
	return ln
}

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
