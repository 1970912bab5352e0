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

// frameState tracks one allocated frame.
type frameState struct {
	refs int
	node topo.NodeID
}

// nodePool is one NUMA node's allocator: a bump pointer over the node's PFN
// range plus a free list of returned frames.
type nodePool struct {
	node     topo.NodeID
	lo, hi   PFN // [lo, hi)
	next     PFN
	freeList []PFN
	inUse    int64
}

// Allocator manages all nodes' physical memory.
type Allocator struct {
	spec  topo.Spec
	pools []nodePool
	// frames holds each allocated frame's state by value, so handing out
	// a frame creates no heap object.
	frames map[PFN]frameState

	// peakInUse tracks the high-water mark of allocated frames, for the
	// §6.4 memory-overhead experiment.
	peakInUse int64
	totalIn   int64
}

// NewAllocator sizes one pool per NUMA node from the machine spec.
func NewAllocator(spec topo.Spec) *Allocator {
	framesPerNode := PFN(spec.MemPerNodeBytes / PageSize)
	a := &Allocator{
		spec:   spec,
		frames: make(map[PFN]frameState),
	}
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
	case p.next < p.hi:
		pfn = p.next
		p.next++
	default:
		return 0, fmt.Errorf("mem: node %d out of memory (%d frames)", node, p.hi-p.lo)
	}
	if _, dup := a.frames[pfn]; dup {
		panic(fmt.Sprintf("mem: frame %d handed out twice", pfn))
	}
	a.frames[pfn] = frameState{refs: 1, node: node}
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
		pfn := base + PFN(i)
		if _, dup := a.frames[pfn]; dup {
			panic(fmt.Sprintf("mem: frame %d handed out twice", pfn))
		}
		a.frames[pfn] = frameState{refs: 1, node: node}
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
	f := a.mustFrame(pfn, "Get")
	f.refs++
	a.frames[pfn] = f
}

// Put decrements the refcount; at zero the frame returns to its node's free
// list and becomes reusable.
func (a *Allocator) Put(pfn PFN) {
	f := a.mustFrame(pfn, "Put")
	f.refs--
	if f.refs > 0 {
		a.frames[pfn] = f
		return
	}
	if f.refs < 0 {
		panic(fmt.Sprintf("mem: frame %d refcount went negative", pfn))
	}
	p := &a.pools[f.node]
	p.freeList = append(p.freeList, pfn)
	p.inUse--
	a.totalIn--
	delete(a.frames, pfn)
}

// Refs returns the current refcount (0 for unallocated frames).
func (a *Allocator) Refs(pfn PFN) int {
	if f, ok := a.frames[pfn]; ok {
		return f.refs
	}
	return 0
}

// NodeOf returns the NUMA node owning a PFN (valid even if unallocated).
func (a *Allocator) NodeOf(pfn PFN) topo.NodeID {
	for i := range a.pools {
		if pfn >= a.pools[i].lo && pfn < a.pools[i].hi {
			return a.pools[i].node
		}
	}
	panic(fmt.Sprintf("mem: PFN %d outside all nodes", pfn))
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

func (a *Allocator) mustFrame(pfn PFN, op string) frameState {
	f, ok := a.frames[pfn]
	if !ok {
		panic(fmt.Sprintf("mem: %s on unallocated frame %d", op, pfn))
	}
	return f
}
