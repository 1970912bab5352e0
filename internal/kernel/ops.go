package kernel

import (
	"fmt"
	"math"

	"latr/internal/mem"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/tlb"
	"latr/internal/topo"
)

// Op is one unit of work a Program asks the kernel to run, built by one of
// the constructors below (Compute, Touch, Mmap, ...) and optionally adjusted
// by Repeat, Populate, Huge or ForceSync. It is a plain value, so a Program
// that returns one per Next call allocates nothing. The zero Op ends the
// thread. Results land in the thread's Last* fields before the next
// Program.Next call.
//
// An Op is four fields in 32 bytes, the largest struct the Go compiler
// keeps in registers: a bigger one is copied through memory at every
// return on its way out of Next, which took 8-9% of a canneal run's host
// CPU. So operands no op uses together share a field, page counts are
// 32-bit, and Touch borrows its page list through a pointer.
type Op struct {
	head opHead
	// arg is a Compute or Sleep op's duration, a populated Mmap's frame
	// node, or the first page of a touch range, munmap, madvise, mprotect
	// or mremap.
	arg  int64
	list *[]pt.VPN                              // Touch: the pages, in access order
	fn   func(c *Core, th *Thread, done func()) // Call
}

// opHead holds an Op's kind and its small operands.
type opHead struct {
	kind     opKind
	flags    opFlags
	accesses uint16 // touch: accesses per page (Repeat)
	// pages is how many pages the op covers; -1 marks a count outside
	// int32, which every op rejects.
	pages int32
}

// opKind says which operation an Op runs.
type opKind uint8

const (
	opExit opKind = iota // the zero Op
	opCompute
	opSleep
	opYield
	opTouch
	opMmap
	opMunmap
	opMadvise
	opMprotect
	opMremap
	opCall
	opFork
)

// opFlags are an Op's boolean operands.
type opFlags uint8

const (
	opWrite     opFlags = 1 << iota // a touch stores; an mmap or mprotect makes pages writable
	opPopulate                      // Populate
	opHuge                          // Huge
	opForceSync                     // ForceSync
)

func (o *Op) has(f opFlags) bool { return o.head.flags&f != 0 }
func (o *Op) pages() int         { return int(o.head.pages) }
func (o *Op) addr() pt.VPN       { return pt.VPN(o.arg) }

// newHead builds an op's head; a page count outside int32 becomes -1.
func newHead(kind opKind, write bool, pages int) opHead {
	h := opHead{kind: kind, pages: int32(pages)}
	if int(h.pages) != pages {
		h.pages = -1
	}
	if write {
		h.flags = opWrite
	}
	return h
}

// Compute burns CPU for d nanoseconds (preemptible at tick granularity).
func Compute(d sim.Time) Op { return Op{head: opHead{kind: opCompute}, arg: int64(d)} }

// Sleep blocks the thread for d nanoseconds without consuming CPU.
func Sleep(d sim.Time) Op { return Op{head: opHead{kind: opSleep}, arg: int64(d)} }

// Yield surrenders the CPU to the next runnable thread.
func Yield() Op { return Op{head: opHead{kind: opYield}} }

// Touch performs memory accesses to the pages *pages lists, in order
// (none when pages is nil). Faults (demand paging, NUMA hints, segfaults
// on unmapped pages) are handled inline; segfaults increment th.LastFault
// instead of killing the thread so programs can observe them. The kernel
// reads the list while the op runs, so the caller must not change it until
// the next Program.Next call.
func Touch(pages *[]pt.VPN, write bool) Op {
	n := 0
	if pages != nil {
		n = len(*pages)
	}
	return Op{head: newHead(opTouch, write, n), list: pages}
}

// TouchRange is the bulk form of Touch: pages pages starting at start.
func TouchRange(start pt.VPN, pages int, write bool) Op {
	return Op{head: newHead(opTouch, write, pages), arg: int64(start)}
}

// Repeat makes each page of a touch op take n accesses (default 1, at most
// 65535). The TLB is consulted once per page; DRAM cost scales with n, so
// locality effects (NUMA migration) are weighted like cacheline-granular
// code.
func (o Op) Repeat(n int) Op {
	o.head.accesses = uint16(min(max(n, 0), math.MaxUint16))
	return o
}

// Mmap maps a fresh region of pages pages; the base VPN is reported in
// th.LastAddr. Pages fault in on first touch unless Populate is set.
func Mmap(pages int, writable bool) Op { return Op{head: newHead(opMmap, writable, pages)} }

// Populate makes an Mmap op allocate and map its frames eagerly, on node,
// or on the calling core's node when node < 0.
func (o Op) Populate(node int) Op {
	o.head.flags |= opPopulate
	o.arg = int64(node)
	return o
}

// Huge makes an Mmap op use 2 MB mappings: its page count must be a
// multiple of 512 and Populate must be set (demand-paged THP allocation is
// out of scope). The §7 THP extension: LATR's range-based states and range
// invalidation cover huge mappings without a new state format.
func (o Op) Huge() Op {
	o.head.flags |= opHuge
	return o
}

// Munmap unmaps [addr, addr+pages), freeing VA and frames subject to the
// coherence policy.
func Munmap(addr pt.VPN, pages int) Op {
	return Op{head: newHead(opMunmap, false, pages), arg: int64(addr)}
}

// ForceSync makes a Munmap op synchronous even under a lazy policy: the
// opt-out flag §7 proposes for applications that unmap to provoke faults
// (use-after-free detectors).
func (o Op) ForceSync() Op {
	o.head.flags |= opForceSync
	return o
}

// Madvise models madvise(MADV_DONTNEED/MADV_FREE): frames are freed and
// PTEs cleared but the VA range stays reserved.
func Madvise(addr pt.VPN, pages int) Op {
	return Op{head: newHead(opMadvise, false, pages), arg: int64(addr)}
}

// Mprotect changes page protection: a synchronous operation under every
// policy (Table 1).
func Mprotect(addr pt.VPN, pages int, writable bool) Op {
	return Op{head: newHead(opMprotect, writable, pages), arg: int64(addr)}
}

// Mremap moves a mapping to a new VA range, synchronously under every
// policy (Table 1). The new base lands in th.LastAddr.
func Mremap(addr pt.VPN, pages int) Op {
	return Op{head: newHead(opMremap, false, pages), arg: int64(addr)}
}

// Call runs arbitrary kernel-extension work (AutoNUMA scanning, policy
// background threads) in thread context. fn must call done exactly once,
// at a segment boundary, to complete the op.
func Call(fn func(c *Core, th *Thread, done func())) Op {
	return Op{head: opHead{kind: opCall}, fn: fn}
}

// execOp starts executing o for the current thread.
func (c *Core) execOp(th *Thread, o Op) {
	th.LastErr = nil
	th.LastFault = 0
	if th.op == nil {
		th.op = new(opState)
	}
	switch o.head.kind {
	case opCall:
		o.fn(c, th, c.then(stepOpBoundary))
	case opCompute:
		if o.arg < 0 {
			c.failSyscall(th, ErrBadArg)
			return
		}
		th.op.remaining = sim.Time(o.arg)
		c.computeChunk(th)
	case opSleep:
		c.doSleep(th, sim.Time(o.arg))
	case opYield:
		c.doYield(th)
	case opTouch:
		if o.pages() < 0 {
			c.failSyscall(th, ErrBadArg)
			return
		}
		th.op.pages = nil
		if o.list != nil {
			th.op.pages = *o.list
		}
		th.op.n, th.op.start = o.pages(), o.addr()
		c.startTouch(th, o.has(opWrite), int(o.head.accesses))
	case opMmap:
		c.doMmap(th, o)
	case opMunmap:
		c.doMunmap(th, o.addr(), o.pages(), false, o.has(opForceSync))
	case opMadvise:
		c.doMunmap(th, o.addr(), o.pages(), true, false)
	case opMprotect:
		c.doMprotect(th, o)
	case opMremap:
		c.doMremap(th, o)
	case opFork:
		c.doFork(th)
	default:
		panic(fmt.Sprintf("kernel: unknown op kind %d", o.head.kind))
	}
}

// computeChunk burns the next tick-sized chunk of th.op.remaining, so
// preemption latency stays bounded for long computations; the remainder
// resumes after the op boundary (stepComputeDone).
func (c *Core) computeChunk(th *Thread) {
	chunk := min(th.op.remaining, c.k.Cost.SchedTickPeriod)
	th.op.remaining -= chunk
	c.busy(chunk, false, c.then(stepComputeDone))
}

func (c *Core) doSleep(th *Thread, d sim.Time) {
	if d < 0 {
		c.failSyscall(th, ErrBadArg)
		return
	}
	k := c.k
	if th.op.wake == nil {
		th.op.wake = func(sim.Time) { k.wake(th) }
	}
	c.block(th, c.then(stepOpBoundary))
	k.Engine.After(d, th.op.wake)
}

func (c *Core) doYield(th *Thread) {
	th.State = Ready
	th.cpuTime += c.k.Now() - th.scheduledAt
	c.cur = nil
	c.runq = append(c.runq, th)
	c.maybeDispatch()
}

// startTouch begins a touch op whose pages are already in th.op.
func (c *Core) startTouch(th *Thread, write bool, accesses int) {
	th.op.next, th.op.write, th.op.accesses = 0, write, max(1, accesses)
	c.touchPages(th)
}

// touchPages is the memory-access engine: per page it models the TLB
// lookup, hardware walk on miss, DRAM access at NUMA-dependent latency,
// and fault handling. Costs accumulate and are paid in one busy segment
// per fault-free run of pages. It touches th.op's pages from th.op.next.
func (c *Core) touchPages(th *Thread) {
	k := c.k
	m := &k.Cost
	mm := th.Proc.MM
	pcid := c.pcid(mm)
	myNode := k.Spec.NodeOf(c.ID)
	op := th.op
	write, accesses := op.write, op.accesses
	var acc sim.Time

	for i := op.next; i < op.n; i++ {
		vpn := op.page(i)
		if line, hit := c.TLB.LookupHuge(pcid, vpn); hit && (!write || line.Writable) {
			off := mem.PFN(vpn - pt.HugeBase(vpn))
			acc += m.TLBHit + sim.Time(accesses)*c.dramCost(myNode, line.PFN+off)
			continue
		}
		if line, hit := c.TLB.Lookup(pcid, vpn); hit && (!write || line.Writable) {
			acc += m.TLBHit + sim.Time(accesses)*c.dramCost(myNode, line.PFN)
			// Detect accesses through stale entries (the §4.4 races): the
			// TLB permitted an access the page table no longer backs. For
			// guest address spaces the cached entry is the combined
			// translation, so the comparison goes through both levels.
			if k.Tracker != nil {
				if e, ok := mm.PT.Get(vpn); !ok || !c.backsLine(mm, e.PFN, line.PFN) {
					if write {
						k.met.raceStaleWrite.Inc()
					} else {
						k.met.raceStaleRead.Inc()
					}
					// A stale access is benign while the frame sits on the
					// lazy lists (refcount held); touching a frame already
					// returned to the allocator is a coherence violation —
					// the data belongs to nobody, or soon to someone else.
					if k.Audit != nil && k.Alloc.Refs(line.PFN) == 0 {
						k.met.auditStaleUse.Inc()
						kind := "read"
						if write {
							kind = "write"
						}
						k.Audit.Report(tlb.Violation{
							Kind:   tlb.ViolationStaleUse,
							Time:   k.Now(),
							Core:   c.ID,
							VPN:    vpn,
							PFN:    line.PFN,
							Detail: fmt.Sprintf("stale %s through freed frame (mm %d)", kind, mm.ID),
						})
					}
				}
			}
			continue
		}
		// TLB miss: hardware walk (huge-aware; two-dimensional for guests,
		// which may take an EPT violation to re-back a reclaimed frame).
		// With page-table replication installed the walk is routed to the
		// socket-local replica or charged the remote-master penalty.
		acc += k.replWalkCost(c, mm, vpn)
		e, huge, ok := mm.PT.WalkAny(vpn, write)
		if ok {
			hpfn, extra, err := c.framePhys(mm, e.PFN)
			acc += extra
			if err != nil {
				// Host memory exhausted while re-backing: the access cannot
				// complete. Surfaced like an allocation failure on the
				// demand-paging path.
				th.LastErr = err
				th.LastFault++
				continue
			}
			if huge {
				base := hpfn - mem.PFN(vpn-pt.HugeBase(vpn))
				c.TLB.InsertHuge(pcid, pt.HugeBase(vpn), base, e.Writable)
			} else {
				c.TLB.Insert(pcid, vpn, hpfn, e.Writable)
			}
			acc += k.policy.OnPageTouch(c, mm, vpn)
			acc += sim.Time(accesses) * c.dramCost(myNode, hpfn)
			continue
		}
		// The master walk failed. A replica that has not yet absorbed a
		// lazily propagated unmap may still serve the old translation —
		// the replica-level analogue of a stale TLB entry. The access
		// completes through it (and lands in the TLB like any walk); the
		// auditor's stale-use machinery judges whether the backing frame
		// was still reference-held or already reallocated.
		if se, stale := k.replStaleWalk(c, mm, vpn, write); stale {
			c.TLB.Insert(pcid, vpn, se.PFN, se.Writable)
			if write {
				k.met.raceStaleWrite.Inc()
			} else {
				k.met.raceStaleRead.Inc()
			}
			if k.Audit != nil && k.Alloc.Refs(se.PFN) == 0 {
				k.met.auditStaleUse.Inc()
				kind := "read"
				if write {
					kind = "write"
				}
				k.Audit.Report(tlb.Violation{
					Kind:   tlb.ViolationStaleUse,
					Time:   k.Now(),
					Core:   c.ID,
					VPN:    vpn,
					PFN:    se.PFN,
					Detail: fmt.Sprintf("stale %s served by page-table replica over freed frame (mm %d)", kind, mm.ID),
				})
			}
			acc += sim.Time(accesses) * c.dramCost(myNode, se.PFN)
			continue
		}
		// Fault. Pay the accumulated access cost plus fault entry, then
		// run the handler; the touch resumes at the next page after.
		op.next, op.faultVPN, op.faultEntry = i+1, vpn, e
		c.busy(acc+m.PageFaultEntry, false, c.then(stepFault))
		return
	}
	c.busy(acc, false, c.then(stepOpBoundary))
}

// dramCost returns the access latency to a frame from the given node.
func (c *Core) dramCost(from topo.NodeID, pfn mem.PFN) sim.Time {
	if c.k.Alloc.NodeOf(pfn) == from {
		return c.k.Cost.DRAMLocal
	}
	return c.k.Cost.DRAMRemote
}
