package kernel

import (
	"latr/internal/obs"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/vm"
)

// opState is a thread's op record: the operands of its in-flight op, kept
// between the segments, lock grants and policy completions the op is split
// into. Continuations read it instead of capturing operands in a closure,
// so one record per thread, reused across ops, replaces a heap object per
// event.
type opState struct {
	// step is what Core.step runs next for this thread (see Core.then).
	step step
	// wake is the thread's wake-up event callback, bound on its first
	// sleep.
	wake func(sim.Time)

	// Compute: CPU time still to burn after the current chunk.
	remaining sim.Time

	// Touch: page i is pages[i] when pages is set (Touch), otherwise
	// start + i (TouchRange); n pages in all, from next on.
	pages    []pt.VPN
	start    pt.VPN
	n        int
	next     int
	write    bool
	accesses int
	// Fault: the page whose access faulted and the entry the walk saw.
	faultVPN   pt.VPN
	faultEntry pt.Entry

	// Mmap: the request, then the base of the new mapping in addr.
	mmap Op
	// Munmap, mprotect and mremap: the VMA pieces RemoveRange took out of
	// the range, read before the op's continuation ends.
	vmas []vm.VMA

	// Munmap and madvise: the range, its flags, and the frames, span and
	// timestamps the PTE phase hands to the policy and the completion.
	addr       pt.VPN
	npages     int
	keepVMA    bool
	forceSync  bool
	frames     []FrameRef
	span       *obs.Span
	t0, tB, t1 sim.Time
}

// page returns the VPN of the touch op's i-th access.
func (o *opState) page(i int) pt.VPN {
	if o.pages != nil {
		return o.pages[i]
	}
	return o.start + pt.VPN(i)
}

// step names a kernel continuation: a Core method that runs for the
// current thread and takes its operands from the thread's op record.
type step uint8

const (
	stepOpBoundary    step = iota // op finished: next op or preemption
	stepCompute                   // burn the next chunk of a Compute op
	stepComputeDone               // a compute chunk ended
	stepTouch                     // resume a touch after a fault
	stepFault                     // fault entry paid: handle the fault
	stepFaultGrant                // demand fault holds mmap_sem shared
	stepFaultDone                 // demand fault mapped: release, resume
	stepMmapGrant                 // mmap holds mmap_sem exclusive
	stepMmapDone                  // mmap paid: release, report the base
	stepMunmapGrant               // munmap/madvise holds mmap_sem exclusive
	stepMunmapCleared             // PTE/TLB phase paid: hand to the policy
	stepMunmapDone                // policy finished: release, report
)

// then returns the continuation that runs s for the current thread. Every
// op continuation is the same func value, c.step, bound on its first use
// rather than in New, so building a machine stays as cheap as what its run
// touches; the step to run lives in the thread's op record. A thread has
// one pending op continuation at a time, so the record needs one step. The
// scheduler's continuations (dispatch, dispatch2) are separate bound
// methods: they must not overwrite the step a blocked thread resumes at.
func (c *Core) then(s step) func() {
	c.mustCurrent().op.step = s
	if c.stepFn == nil {
		c.stepFn = c.step
	}
	return c.stepFn
}

// mustCurrent returns the running thread. Kernel continuations run only
// while their thread is c.cur; finding no thread there is a scheduler bug.
func (c *Core) mustCurrent() *Thread {
	if c.cur == nil {
		panic("kernel: continuation ran with no current thread")
	}
	return c.cur
}

// step runs the current thread's pending op continuation.
func (c *Core) step() {
	th := c.mustCurrent()
	switch th.op.step {
	case stepOpBoundary:
		c.opBoundary()
	case stepCompute:
		c.computeChunk(th)
	case stepComputeDone:
		if th.op.remaining > 0 {
			th.resume = c.then(stepCompute)
		}
		c.opBoundary()
	case stepTouch:
		c.touchPages(th)
	case stepFault:
		c.handleFault(th)
	case stepFaultGrant:
		c.faultGrant(th)
	case stepFaultDone:
		c.faultDone(th)
	case stepMmapGrant:
		c.mmapGrant(th)
	case stepMmapDone:
		th.Proc.MM.Sem.ReleaseWrite()
		th.LastAddr = th.op.addr
		c.k.met.sysMmap.Inc()
		c.opBoundary()
	case stepMunmapGrant:
		c.munmapGrant(th)
	case stepMunmapCleared:
		c.munmapCleared(th)
	case stepMunmapDone:
		c.munmapDone(th)
	default:
		panic("kernel: unknown continuation step")
	}
}
