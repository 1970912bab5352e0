package kernel

import (
	"testing"

	"latr/internal/sim"
	"latr/internal/topo"
)

// TestVPIDRecycleLIFO: VPIDs allocate sequentially and recycle LIFO from
// destroyed VMs, so teardown scenarios really do collide tags.
func TestVPIDRecycleLIFO(t *testing.T) {
	k := testKernel()
	v1 := k.NewVM("V1", 64)
	v2 := k.NewVM("V2", 64)
	if v1.VPID == v2.VPID {
		t.Fatalf("distinct VMs share VPID %d", v1.VPID)
	}
	p := k.NewProcess()
	var destroyErr error
	p.Spawn(0, &script{steps: []func(*Thread) Op{
		func(*Thread) Op {
			return Call(func(c *Core, th *Thread, done func()) {
				if err := k.DestroyVM(c, v2, done); err != nil {
					destroyErr = err
					done()
				}
			})
		},
	}})
	run(k, sim.Millisecond)
	if destroyErr != nil {
		t.Fatalf("destroy: %v", destroyErr)
	}
	if !v2.Destroyed() {
		t.Fatal("V2 not destroyed")
	}
	if v3 := k.NewVM("V3", 64); v3.VPID != v2.VPID {
		t.Errorf("V3 got VPID %d, want V2's recycled %d", v3.VPID, v2.VPID)
	}
	if v4 := k.NewVM("V4", 64); v4.VPID == v1.VPID || v4.VPID == v2.VPID {
		t.Errorf("V4 got a VPID (%d) still in use", v4.VPID)
	}
}

// TestGuestDemandPagingBacksFrames: a guest touch allocates a guest frame
// AND a host backing; the combined accounting matches the working set.
func TestGuestDemandPagingBacksFrames(t *testing.T) {
	k := testKernel()
	v := k.NewVM("V1", 64)
	p := k.NewGuestProcess(v)
	p.Spawn(0, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Mmap(4, true) },
		func(th *Thread) Op { return TouchRange(th.LastAddr, 4, true) },
	}})
	run(k, sim.Millisecond)
	if got := v.GPhys.InUse(); got != 4 {
		t.Errorf("guest frames in use = %d, want 4", got)
	}
	if got := v.EPT.Backed(); got != 4 {
		t.Errorf("EPT backings = %d, want 4", got)
	}
	if got := k.AdjustedFramesInUse(); got != 4 {
		t.Errorf("adjusted frames = %d, want 4", got)
	}
}

// TestEPTViolationReback: ballooning unbacks live guest pages; the next
// guest touch traps (virt.ept_violations), re-backs with a fresh host
// frame, and is not a guest-visible fault. The balloon runs on the
// touching vCPU itself, so its own TLB is VPID-flushed by the local
// INVVPID and every re-touch must walk and trap.
func TestEPTViolationReback(t *testing.T) {
	k := testKernel()
	v := k.NewVM("V1", 64)
	p := k.NewGuestProcess(v)
	var faults int
	p.Spawn(1, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Mmap(6, true).Populate(-1) },
		func(*Thread) Op {
			return Call(func(c *Core, _ *Thread, done func()) {
				k.BalloonReclaim(c, v, 6, done)
			})
		},
		func(th *Thread) Op { return TouchRange(th.LastAddr, 6, true) },
		func(th *Thread) Op { faults = th.LastFault; return Op{} },
	}})
	run(k, 2*sim.Millisecond)
	if got := k.Metrics.Counter("virt.balloon_reclaimed"); got != 6 {
		t.Fatalf("ballooned %d, want 6", got)
	}
	if got := k.Metrics.Counter("virt.ept_violations"); got != 6 {
		t.Errorf("EPT violations = %d, want 6", got)
	}
	if faults != 0 {
		t.Errorf("guest observed %d faults re-touching ballooned pages", faults)
	}
	if got := v.EPT.Backed(); got != 6 {
		t.Errorf("backings after re-touch = %d, want 6", got)
	}
	if got := k.AdjustedFramesInUse(); got != 6 {
		t.Errorf("adjusted frames = %d, want 6", got)
	}
}

// TestBalloonCursorRotates: consecutive balloons reclaim different pages —
// the cursor walks the backed list deterministically.
func TestBalloonCursorRotates(t *testing.T) {
	k := testKernel()
	v := k.NewVM("V1", 64)
	p := k.NewGuestProcess(v)
	p.Spawn(1, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Mmap(8, true).Populate(-1) },
		func(th *Thread) Op {
			return Call(func(c *Core, _ *Thread, done func()) { k.BalloonReclaim(c, v, 3, done) })
		},
		func(th *Thread) Op { return TouchRange(th.LastAddr, 8, true) },
		func(th *Thread) Op {
			return Call(func(c *Core, _ *Thread, done func()) { k.BalloonReclaim(c, v, 3, done) })
		},
	}})
	run(k, 2*sim.Millisecond)
	if got := k.Metrics.Counter("virt.balloon_reclaimed"); got != 6 {
		t.Fatalf("ballooned %d, want 6", got)
	}
	// First balloon hit gPFNs 0-2, re-touch re-backed them, second balloon
	// must have moved on to 3-5 rather than re-reclaiming 0-2.
	if got := v.EPT.Backed(); got != 5 {
		t.Errorf("backings = %d, want 5 (8 - 3 unbacked + 0 retouched)", got)
	}
}

// TestMigrateDropsAllBackings: migration's stop-and-copy unbacks the whole
// working set, resets the balloon cursor, and stays invisible to the guest.
func TestMigrateDropsAllBackings(t *testing.T) {
	k := testKernel()
	v := k.NewVM("V1", 64)
	p := k.NewGuestProcess(v)
	var faults int
	p.Spawn(1, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Mmap(5, true).Populate(-1) },
		func(th *Thread) Op {
			return Call(func(c *Core, _ *Thread, done func()) { k.MigrateVM(c, v, done) })
		},
		func(th *Thread) Op { return TouchRange(th.LastAddr, 5, true) },
		func(th *Thread) Op { faults = th.LastFault; return Op{} },
	}})
	run(k, 2*sim.Millisecond)
	if got := k.Metrics.Counter("virt.vm_migrations"); got != 1 {
		t.Fatalf("migrations = %d, want 1", got)
	}
	if faults != 0 {
		t.Errorf("guest observed %d faults across migration", faults)
	}
	if got := v.EPT.Backed(); got != 5 {
		t.Errorf("backings after re-fault = %d, want 5", got)
	}
	if got := k.Metrics.Counter("virt.ept_violations"); got != 5 {
		t.Errorf("EPT violations = %d, want 5", got)
	}
}

// TestDestroyVMGuards: destroying twice and destroying with live guest
// threads are errors; a clean destroy reclaims everything.
func TestDestroyVMGuards(t *testing.T) {
	k := testKernel()
	v := k.NewVM("V1", 64)
	p := k.NewGuestProcess(v)
	var liveErr, cleanErr, twiceErr error
	p.Spawn(1, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Mmap(4, true).Populate(-1) },
		func(*Thread) Op {
			// From inside the guest: its own thread is live.
			return Call(func(c *Core, _ *Thread, done func()) {
				liveErr = k.DestroyVM(c, v, done)
				done()
			})
		},
	}})
	hp := k.NewProcess()
	hp.Spawn(0, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Sleep(sim.Millisecond) },
		func(*Thread) Op {
			return Call(func(c *Core, _ *Thread, done func()) {
				if cleanErr = k.DestroyVM(c, v, done); cleanErr != nil {
					done()
				}
			})
		},
		func(*Thread) Op {
			return Call(func(c *Core, _ *Thread, done func()) {
				twiceErr = k.DestroyVM(c, v, done)
				done()
			})
		},
	}})
	run(k, 5*sim.Millisecond)
	if liveErr == nil {
		t.Error("destroy with a live guest thread succeeded")
	}
	if cleanErr != nil {
		t.Errorf("clean destroy failed: %v", cleanErr)
	}
	if twiceErr == nil {
		t.Error("double destroy succeeded")
	}
	if got := k.Alloc.TotalInUse(); got != 0 {
		t.Errorf("%d host frames in use after destroy", got)
	}
	if got := v.GPhys.InUse(); got != 0 {
		t.Errorf("%d guest frames in use after destroy", got)
	}
	if got := k.AdjustedFramesInUse(); got != 0 {
		t.Errorf("adjusted frames = %d, want 0", got)
	}
}

// TestGuestForkRejected: fork inside a VM fails with ErrBadArg (guest
// frames are never CoW-shared across the nested level).
func TestGuestForkRejected(t *testing.T) {
	k := testKernel()
	v := k.NewVM("V1", 64)
	p := k.NewGuestProcess(v)
	var err error
	p.Spawn(0, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Fork() },
		func(th *Thread) Op { err = th.LastErr; return Op{} },
	}})
	run(k, sim.Millisecond)
	if err != ErrBadArg {
		t.Fatalf("guest fork: err = %v, want ErrBadArg", err)
	}
}

// TestAdjustedFramesMixedHostGuest: host process frames count 1:1 while
// guest pages count through GPhys, with backings cancelled out.
func TestAdjustedFramesMixedHostGuest(t *testing.T) {
	k := testKernel()
	v := k.NewVM("V1", 64)
	gp := k.NewGuestProcess(v)
	hp := k.NewProcess()
	gp.Spawn(1, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Mmap(3, true).Populate(-1) },
	}})
	hp.Spawn(0, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Mmap(5, true).Populate(-1) },
	}})
	run(k, sim.Millisecond)
	if got := k.AdjustedFramesInUse(); got != 8 {
		t.Errorf("adjusted frames = %d, want 8 (5 host + 3 guest)", got)
	}
	if got := k.Alloc.TotalInUse(); got != 8 {
		t.Errorf("host frames = %d, want 8 (5 host + 3 backings)", got)
	}
}

// TestGuestProcessInDestroyedVMPanics guards the API misuse path.
func TestGuestProcessInDestroyedVMPanics(t *testing.T) {
	k := testKernel()
	v := k.NewVM("V1", 64)
	p := k.NewProcess()
	p.Spawn(0, &script{steps: []func(*Thread) Op{
		func(*Thread) Op {
			return Call(func(c *Core, _ *Thread, done func()) {
				if err := k.DestroyVM(c, v, done); err != nil {
					done()
				}
			})
		},
	}})
	run(k, sim.Millisecond)
	defer func() {
		if recover() == nil {
			t.Error("NewGuestProcess in a destroyed VM did not panic")
		}
	}()
	k.NewGuestProcess(v)
}

// TestVMCoreMaskCoversGuestCores: the host quiesce must target every core
// that ran the VM — exercised indirectly via a sync balloon IPIing the
// vCPU's core.
func TestVMCoreMaskCoversGuestCores(t *testing.T) {
	k := testKernel() // instant policy: HostSync default
	v := k.NewVM("V1", 64)
	p := k.NewGuestProcess(v)
	hp := k.NewProcess()
	p.Spawn(2, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Mmap(4, true).Populate(-1) },
		func(th *Thread) Op { return TouchRange(th.LastAddr, 4, true) },
		func(*Thread) Op { return Compute(2 * sim.Millisecond) },
	}})
	hp.Spawn(topo.CoreID(0), &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Sleep(500 * sim.Microsecond) },
		func(*Thread) Op {
			return Call(func(c *Core, _ *Thread, done func()) { k.BalloonReclaim(c, v, 4, done) })
		},
	}})
	run(k, 5*sim.Millisecond)
	if got := k.Metrics.Counter("virt.host_quiesce_ipis"); got == 0 {
		t.Error("sync balloon quiesce sent no IPIs despite a busy vCPU core")
	}
	if v.EPT.Backed() != 0 {
		t.Errorf("backings after balloon = %d, want 0", v.EPT.Backed())
	}
}
