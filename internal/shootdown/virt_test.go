package shootdown

import (
	"testing"

	latrcore "latr/internal/core"
	"latr/internal/kernel"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/topo"
)

// virtMapTouchUnmap is mapTouchUnmap inside a guest: one VM, its vCPU
// threads on the given cores warming the mapping, the initiating vCPU on
// core 0 unmapping it. Returns the kernel after the run (audit swept).
func virtMapTouchUnmap(pol kernel.Policy, pages int, sharers []topo.CoreID) *kernel.Kernel {
	k := newK(pol)
	v := k.NewVM("V1", 1024)
	p := k.NewGuestProcess(v)
	var base pt.VPN
	for _, c := range sharers {
		c := c
		p.Spawn(c, kernel.Script(
			func(*kernel.Thread) kernel.Op { return kernel.Sleep(50 * sim.Microsecond) },
			func(*kernel.Thread) kernel.Op { return kernel.TouchRange(base, pages, false) },
			func(*kernel.Thread) kernel.Op { return kernel.Compute(5 * sim.Millisecond) },
		))
	}
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(pages, true).Populate(-1)
		},
		func(th *kernel.Thread) kernel.Op { base = th.LastAddr; return kernel.Sleep(150 * sim.Microsecond) },
		func(*kernel.Thread) kernel.Op { return kernel.Munmap(base, pages) },
		func(*kernel.Thread) kernel.Op { return kernel.Compute(5 * sim.Millisecond) },
	))
	k.Run(12 * sim.Millisecond)
	k.AuditVirt()
	return k
}

// TestVirtPolicyContracts pins each backend's name and declared host-level
// coherence mode — the table the virtualized experiments select rows from.
func TestVirtPolicyContracts(t *testing.T) {
	cases := []struct {
		pol  kernel.Policy
		name string
		mode kernel.HostMode
	}{
		{NewGuestLATR(), "guest-latr", kernel.HostSync},
		{NewHostLATR(), "host-latr", kernel.HostLazy},
		{NewHATRIC(), "hatric", kernel.HostHardware},
	}
	for _, tc := range cases {
		if tc.pol.Name() != tc.name {
			t.Errorf("policy name %q, want %q", tc.pol.Name(), tc.name)
		}
		hc, ok := tc.pol.(kernel.HostCoherent)
		if !ok {
			t.Fatalf("%s does not declare a host mode", tc.name)
		}
		if got := hc.HostMode(); got != tc.mode {
			t.Errorf("%s host mode = %v, want %v", tc.name, got, tc.mode)
		}
	}
}

// TestGuestShootdownVMExits counts the trap-and-fan-out amplification (Yan
// et al. §2): a guest munmap with N remote vCPU sharers exits once for the
// sender's ICR write, once per injected virtual IPI, and once per handler
// EOI — 2N+1 exits, where the native path takes zero.
func TestGuestShootdownVMExits(t *testing.T) {
	for _, n := range []int{1, 3} {
		sharers := []topo.CoreID{1, 2, 3}[:n]
		k := virtMapTouchUnmap(NewLinux(), 1, sharers)
		if got, want := k.Metrics.Counter("virt.vm_exits"), uint64(2*n+1); got != want {
			t.Errorf("%d sharers: %d VM exits, want %d", n, got, want)
		}
		if got := k.Metrics.Counter("ipi.handled"); got != uint64(n) {
			t.Errorf("%d sharers: %d IPIs handled, want %d", n, got, n)
		}
	}
	native := mapTouchUnmap(NewLinux(), 1, []topo.CoreID{1, 2, 3})
	if got := native.Metrics.Counter("virt.vm_exits"); got != 0 {
		t.Errorf("native shootdown took %d VM exits, want 0", got)
	}
}

// TestVirtShootdownAmplifiedLatency: the same munmap must sit on the
// critical path at least one full exit round-trip longer inside a guest.
func TestVirtShootdownAmplifiedLatency(t *testing.T) {
	nat := mapTouchUnmap(NewLinux(), 1, []topo.CoreID{1, 2, 3})
	vrt := virtMapTouchUnmap(NewLinux(), 1, []topo.CoreID{1, 2, 3})
	nm, vm := nat.Metrics.Hist("munmap.shootdown").Mean(), vrt.Metrics.Hist("munmap.shootdown").Mean()
	if vm < nm+nat.Cost.VMExitRoundTrip {
		t.Errorf("virtualized shootdown %v vs native %v: amplification below one exit round-trip (%v)",
			vm, nm, nat.Cost.VMExitRoundTrip)
	}
}

// TestGuestLATRKeepsGuestLevelLazy: guest-LATR takes no IPIs (and
// therefore no VM exits) on the guest munmap path, and still drains to
// zero live frames once the sweeps run.
func TestGuestLATRKeepsGuestLevelLazy(t *testing.T) {
	k := virtMapTouchUnmap(NewGuestLATR(), 2, []topo.CoreID{1, 2})
	if got := k.Metrics.Counter("shootdown.ipi_targets"); got != 0 {
		t.Errorf("guest-latr sent %d shootdown IPIs, want 0", got)
	}
	if got := k.Metrics.Counter("virt.vm_exits"); got != 0 {
		t.Errorf("guest-latr took %d VM exits, want 0", got)
	}
	if k.Metrics.Counter("latr.states_recorded") == 0 {
		t.Error("guest-latr recorded no lazy states")
	}
	if got := k.AdjustedFramesInUse(); got != 0 {
		t.Errorf("%d adjusted frames in use after drain, want 0", got)
	}
}

// TestHATRICQuiesceWithoutIPIs: the hardware backend must reach the same
// drained state with zero IPIs and zero VM exits — precise invalidations
// posted over the fabric instead.
func TestHATRICQuiesceWithoutIPIs(t *testing.T) {
	k := virtMapTouchUnmap(NewHATRIC(), 2, []topo.CoreID{1, 2})
	if got := k.Metrics.Counter("ipi.handled"); got != 0 {
		t.Errorf("hatric delivered %d IPIs, want 0", got)
	}
	if got := k.Metrics.Counter("virt.vm_exits"); got != 0 {
		t.Errorf("hatric took %d VM exits, want 0", got)
	}
	if k.Metrics.Counter("hatric.batches") == 0 {
		t.Error("no hatric invalidation batches recorded")
	}
	if k.Metrics.Counter("hatric.invals") == 0 {
		t.Error("no hatric invalidations recorded")
	}
	if got := k.AdjustedFramesInUse(); got != 0 {
		t.Errorf("%d adjusted frames in use after drain, want 0", got)
	}
}

// TestHostLATRBalloonIsLazy: under host-LATR a balloon returns to the
// initiator immediately, parks the batch, and frees the backings only
// after the reclamation window.
func TestHostLATRBalloonIsLazy(t *testing.T) {
	k := newK(NewHostLATR())
	v := k.NewVM("V1", 1024)
	p := k.NewGuestProcess(v)
	hp := k.NewProcess()
	var ballooned sim.Time
	p.Spawn(1, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(8, true).Populate(-1)
		},
		func(th *kernel.Thread) kernel.Op {
			return kernel.TouchRange(th.LastAddr, 8, true)
		},
		func(*kernel.Thread) kernel.Op { return kernel.Compute(8 * sim.Millisecond) },
	))
	hp.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op { return kernel.Sleep(sim.Millisecond) },
		func(*kernel.Thread) kernel.Op {
			return kernel.Call(func(c *kernel.Core, th *kernel.Thread, done func()) {
				k.BalloonReclaim(c, v, 4, done)
			})
		},
		func(th *kernel.Thread) kernel.Op { ballooned = k.Now(); return kernel.Op{} },
	))
	k.Run(12 * sim.Millisecond)
	k.AuditVirt()

	if got := k.Metrics.Counter("virt.balloon_reclaimed"); got != 4 {
		t.Fatalf("balloon reclaimed %d backings, want 4", got)
	}
	if got := k.Metrics.Counter("virt.lazy_batches"); got != 1 {
		t.Errorf("lazy balloon batches = %d, want 1", got)
	}
	if got := k.Metrics.Counter("virt.lazy_reclaimed"); got != 4 {
		t.Errorf("lazily reclaimed backings = %d, want 4", got)
	}
	// The initiator must not have waited out the 2 ms reclamation window.
	if ballooned >= sim.Millisecond+k.Cost.HostLazyReclaim {
		t.Errorf("balloon initiator returned at %v — it waited for the reclaim window", ballooned)
	}
	// 8 guest pages stay mapped; 4 lost their backing and were not
	// re-touched. The two-level accounting still sees exactly 8 frames.
	if got := v.EPT.Backed(); got != 4 {
		t.Errorf("%d backings left, want 4", got)
	}
	if got := k.AdjustedFramesInUse(); got != 8 {
		t.Errorf("adjusted frames = %d, want 8", got)
	}
}

// TestAllPoliciesReachSameGuestMemoryState is the conformance sweep: the
// mapTouchUnmap workload run inside a guest must converge to identical
// architectural state under all seven backends, native and virtualized
// host modes alike.
func TestAllPoliciesReachSameGuestMemoryState(t *testing.T) {
	type outcome struct {
		mapped   int
		segv     uint64
		adjusted int
	}
	runOne := func(pol kernel.Policy) outcome {
		k := virtMapTouchUnmap(pol, 4, []topo.CoreID{1, 3})
		mapped := 0
		for _, proc := range k.Processes() {
			mapped += proc.MM.PT.Mapped()
		}
		return outcome{
			mapped:   mapped,
			segv:     k.Metrics.Counter("fault.segv"),
			adjusted: k.AdjustedFramesInUse(),
		}
	}
	ref := runOne(NewLinux())
	pols := []kernel.Policy{
		NewABIS(), NewBarrelfish(), latrcore.New(latrcore.Config{}),
		NewGuestLATR(), NewHostLATR(), NewHATRIC(),
	}
	for _, pol := range pols {
		if got := runOne(pol); got != ref {
			t.Errorf("%s diverged: got %+v, want %+v", pol.Name(), got, ref)
		}
	}
}
