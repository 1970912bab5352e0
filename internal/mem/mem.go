// Package mem models physical memory: per-NUMA-node frame allocators with
// reference counts. Frames are identified by PFN; each node owns a disjoint
// contiguous PFN range. The allocator never hands out a frame whose
// refcount is non-zero, which is the hook LATR's lazy reclamation relies on
// (§4.2: "since the physical page reference count is non-zero, Latr
// ensures that the physical pages are not reused").
package mem

import (
	"fmt"

	"latr/internal/topo"
)

// PageSize is the base page size (4 KB). Huge pages are 512 base pages
// (2 MB), allocated contiguously via AllocContig.
const PageSize = 4096

// PFN is a physical frame number.
type PFN uint64

// nodePool is one NUMA node's allocator: a bump pointer over the node's PFN
// range plus a free list of returned frames. refs[i] is frame lo+i's
// refcount, 0 while it is free; it grows as the bump pointer advances, so
// it holds the frames handed out so far, never the node's capacity.
type nodePool struct {
	node     topo.NodeID
	lo, hi   PFN // [lo, hi)
	next     PFN
	freeList []PFN
	refs     []int32
	inUse    int64
}

// Allocator manages all nodes' physical memory.
type Allocator struct {
	spec  topo.Spec
	pools []nodePool

	// peakInUse tracks the high-water mark of allocated frames, for the
	// §6.4 memory-overhead experiment.
	peakInUse int64
	totalIn   int64
}

// NewAllocator sizes one pool per NUMA node from the machine spec.
func NewAllocator(spec topo.Spec) *Allocator {
	framesPerNode := PFN(spec.MemPerNodeBytes / PageSize)
	a := &Allocator{spec: spec}
	for n := 0; n < spec.NumNodes(); n++ {
		lo := PFN(n) * framesPerNode
		a.pools = append(a.pools, nodePool{
			node: topo.NodeID(n),
			lo:   lo,
			hi:   lo + framesPerNode,
			next: lo,
		})
	}
	return a
}

// Alloc returns a fresh frame on the given node with refcount 1.
func (a *Allocator) Alloc(node topo.NodeID) (PFN, error) {
	if int(node) < 0 || int(node) >= len(a.pools) {
		return 0, fmt.Errorf("mem: no such node %d", node)
	}
	p := &a.pools[node]
	var pfn PFN
	switch {
	case len(p.freeList) > 0:
		pfn = p.freeList[len(p.freeList)-1]
		p.freeList = p.freeList[:len(p.freeList)-1]
		if p.refs[pfn-p.lo] != 0 {
			panic(fmt.Sprintf("mem: frame %d handed out twice", pfn))
		}
		p.refs[pfn-p.lo] = 1
	case p.next < p.hi:
		pfn = p.next
		p.next++
		p.refs = append(p.refs, 1)
	default:
		return 0, fmt.Errorf("mem: node %d out of memory (%d frames)", node, p.hi-p.lo)
	}
	p.inUse++
	a.totalIn++
	if a.totalIn > a.peakInUse {
		a.peakInUse = a.totalIn
	}
	return pfn, nil
}

// AllocContig returns n physically contiguous frames on node, each with
// refcount 1 (huge-page backing). Contiguity comes from the bump region;
// fragmented free-list frames are not defragmented (compaction is beyond
// this model).
func (a *Allocator) AllocContig(node topo.NodeID, n int) (PFN, error) {
	if int(node) < 0 || int(node) >= len(a.pools) {
		return 0, fmt.Errorf("mem: no such node %d", node)
	}
	p := &a.pools[node]
	if p.next+PFN(n) > p.hi {
		return 0, fmt.Errorf("mem: node %d cannot satisfy %d contiguous frames", node, n)
	}
	base := p.next
	p.next += PFN(n)
	for i := 0; i < n; i++ {
		p.refs = append(p.refs, 1)
	}
	p.inUse += int64(n)
	a.totalIn += int64(n)
	if a.totalIn > a.peakInUse {
		a.peakInUse = a.totalIn
	}
	return base, nil
}

// Get increments the refcount of an allocated frame.
func (a *Allocator) Get(pfn PFN) {
	_, r := a.mustRef(pfn, "Get")
	*r++
}

// Put decrements the refcount; at zero the frame returns to its node's free
// list and becomes reusable.
func (a *Allocator) Put(pfn PFN) {
	p, r := a.mustRef(pfn, "Put")
	*r--
	if *r > 0 {
		return
	}
	p.freeList = append(p.freeList, pfn)
	p.inUse--
	a.totalIn--
}

// Refs returns the current refcount (0 for unallocated frames).
func (a *Allocator) Refs(pfn PFN) int {
	if p := a.pool(pfn); p != nil && pfn < p.next {
		return int(p.refs[pfn-p.lo])
	}
	return 0
}

// NodeOf returns the NUMA node owning a PFN (valid even if unallocated).
func (a *Allocator) NodeOf(pfn PFN) topo.NodeID {
	if p := a.pool(pfn); p != nil {
		return p.node
	}
	panic(fmt.Sprintf("mem: PFN %d outside all nodes", pfn))
}

// pool returns the pool whose range holds pfn, or nil. Every node has the
// same number of frames, so the node is pfn divided by that number.
func (a *Allocator) pool(pfn PFN) *nodePool {
	per := PFN(a.FramesPerNode())
	if per == 0 || pfn/per >= PFN(len(a.pools)) {
		return nil
	}
	return &a.pools[pfn/per]
}

// InUse returns the number of allocated frames on a node.
func (a *Allocator) InUse(node topo.NodeID) int64 { return a.pools[node].inUse }

// FramesPerNode returns each node's total frame capacity.
func (a *Allocator) FramesPerNode() int64 {
	if len(a.pools) == 0 {
		return 0
	}
	return int64(a.pools[0].hi - a.pools[0].lo)
}

// TotalInUse returns allocated frames machine-wide.
func (a *Allocator) TotalInUse() int64 { return a.totalIn }

// PeakInUse returns the allocation high-water mark in frames.
func (a *Allocator) PeakInUse() int64 { return a.peakInUse }

// ResetPeak restarts high-water-mark tracking from the current usage.
func (a *Allocator) ResetPeak() { a.peakInUse = a.totalIn }

// mustRef returns an allocated frame's pool and refcount, and panics if
// the frame is not allocated.
func (a *Allocator) mustRef(pfn PFN, op string) (*nodePool, *int32) {
	if p := a.pool(pfn); p != nil && pfn < p.next && p.refs[pfn-p.lo] > 0 {
		return p, &p.refs[pfn-p.lo]
	}
	panic(fmt.Sprintf("mem: %s on unallocated frame %d", op, pfn))
}
