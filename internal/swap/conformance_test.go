// Backend conformance suite: every swap.Backend implementation must carry
// the same reuse-invariant cycle — populate past the watermark, evict cold
// pages, fault them back in transparently, drop device copies when the VA
// dies — under both a synchronous policy (Linux) and a lazy one (LATR),
// with the shadow reuse checker and the coherence auditor both armed. New
// backends plug into backendFactories and inherit the whole suite.
package swap_test

import (
	"fmt"
	"testing"

	latrcore "latr/internal/core"
	"latr/internal/cost"
	"latr/internal/kernel"
	"latr/internal/pt"
	"latr/internal/remote"
	"latr/internal/shootdown"
	"latr/internal/sim"
	"latr/internal/swap"
	"latr/internal/topo"
)

// backendFactories enumerates the conformance subjects.
var backendFactories = map[string]func() swap.Backend{
	"nvme":   func() swap.Backend { return swap.NewLocalBackend() },
	"remote": func() swap.Backend { return remote.New(remote.Config{}) },
}

func policies() map[string]func() kernel.Policy {
	return map[string]func() kernel.Policy{
		"linux": func() kernel.Policy { return shootdown.NewLinux() },
		"latr":  func() kernel.Policy { return latrcore.New(latrcore.Config{}) },
	}
}

// conformanceKernel is a 1024-frames-per-node machine with the checker and
// auditor on.
func conformanceKernel(pol kernel.Policy, b swap.Backend) (*kernel.Kernel, *swap.Swapper) {
	spec := topo.Custom(2, 2)
	spec.MemPerNodeBytes = 1024 * 4096
	k := kernel.New(spec, cost.Default(spec), pol, kernel.Options{
		CheckInvariants: true,
		Audit:           true,
		Seed:            29,
	})
	s := swap.NewWithBackend(swap.Config{
		LowWatermarkFrames:  300,
		HighWatermarkFrames: 500,
		ScanPeriod:          sim.Millisecond,
		BatchPages:          256,
	}, b)
	s.Install(k)
	return k, s
}

// reuseCycle maps hot+cold regions past the watermark, lets the swapper
// evict, revisits the cold set (swap-in), then unmaps everything
// (device-copy drop path). A second thread spins on core 2 for the whole
// run, so the mm is always live on a busy remote core — under Linux every
// eviction therefore pays a real IPI + ACK wait, exactly the Infiniswap
// configuration (server threads busy while kswapd evicts).
func reuseCycle(k *kernel.Kernel, s *swap.Swapper) (revisitFaults *int) {
	p := k.NewProcess()
	s.Register(p)
	var hot, cold pt.VPN
	revisitFaults = new(int)
	stop := false
	touches := 0
	step := 0
	// Core 1, not the swapper's core 0: evictions must have a remote core
	// caching the mm, so Linux's shootdown actually sends IPIs.
	p.Spawn(1, kernel.Loop(func(th *kernel.Thread) kernel.Op {
		switch step {
		case 0:
			step = 1
			return kernel.Mmap(400, true).Populate(0)
		case 1:
			cold = th.LastAddr
			step = 2
			return kernel.TouchRange(cold, 400, true)
		case 2:
			step = 3
			return kernel.Mmap(500, true).Populate(0)
		case 3:
			hot = th.LastAddr
			step = 4
			return kernel.TouchRange(hot, 500, true)
		case 4: // keep the hot set hot while pressure builds
			touches++
			if touches > 40 {
				step = 5
			}
			return kernel.TouchRange(hot, 500, true)
		case 5:
			// Sleep past several scan periods and LATR sweep epochs so the
			// cold evictions are fully done before the revisit.
			step = 6
			return kernel.Sleep(10 * sim.Millisecond)
		case 6: // revisit the cold region: swapped pages must fault back in
			step = 7
			return kernel.TouchRange(cold, 400, true)
		case 7:
			*revisitFaults = th.LastFault
			step = 8
			// Let the swapper evict again so some pages are swap-resident
			// when the VAs die below — exercising the drop path.
			return kernel.Sleep(5 * sim.Millisecond)
		case 8:
			step = 9
			return kernel.Munmap(cold, 400)
		case 9:
			step = 10
			stop = true
			return kernel.Munmap(hot, 500)
		default:
			return kernel.Op{}
		}
	}))
	spinStep := 0
	var spinBase pt.VPN
	p.Spawn(2, kernel.Loop(func(th *kernel.Thread) kernel.Op {
		switch spinStep {
		case 0:
			spinStep = 1
			return kernel.Mmap(16, true).Populate(0)
		case 1:
			spinBase = th.LastAddr
			spinStep = 2
			return kernel.TouchRange(spinBase, 16, true)
		case 2:
			if stop {
				spinStep = 3
				return kernel.Munmap(spinBase, 16)
			}
			spinStep = 1
			return kernel.Compute(20 * sim.Microsecond)
		default:
			return kernel.Op{}
		}
	}))
	return revisitFaults
}

func TestBackendConformance(t *testing.T) {
	for bname, newBackend := range backendFactories {
		for pname, newPolicy := range policies() {
			t.Run(fmt.Sprintf("%s/%s", bname, pname), func(t *testing.T) {
				b := newBackend()
				k, s := conformanceKernel(newPolicy(), b)
				revisit := reuseCycle(k, s)
				k.Run(200 * sim.Millisecond)
				k.Run(k.Now() + 15*sim.Millisecond) // drain lazy reclamation

				if k.LiveThreads() > 1 { // swapper kthread remains
					t.Fatal("workload did not finish")
				}
				if k.Metrics.Counter("swap.out") == 0 {
					t.Fatal("no pages swapped out under pressure")
				}
				if k.Metrics.Counter("swap.in") == 0 {
					t.Fatal("revisited cold pages never swapped back in")
				}
				if *revisit != 0 {
					t.Fatalf("cold revisit segfaulted %d times (swap-in must be transparent)", *revisit)
				}
				if k.Audit != nil && k.Audit.Total() > 0 {
					t.Fatalf("coherence auditor found %d violation(s):\n%s", k.Audit.Total(), k.Audit.Render())
				}
				if got := s.SwappedPages(); got != 0 {
					t.Fatalf("%d device copies survive after their regions were unmapped", got)
				}
				if k.Metrics.Counter("swap.dropped") == 0 {
					t.Fatal("unmapping swap-resident regions never hit the drop path")
				}
				// The eviction critical-path histogram must have fed the
				// percentile instrumentation.
				if k.Metrics.Perc("swap.evict_hold").Count() == 0 {
					t.Fatal("swap.evict_hold percentile histogram is empty")
				}
				if rb, ok := b.(*remote.Backend); ok {
					if rb.FramesInUse() != 0 {
						t.Fatalf("remote pool leaks %d frames after drop/load drained", rb.FramesInUse())
					}
					if rb.InFlight() != 0 {
						t.Fatalf("%d writes still in flight after drain", rb.InFlight())
					}
				}
			})
		}
	}
}

// TestConformanceShootdownOrdering pins the tentpole's critical-path
// asymmetry: under Linux the policy work completed before the device write
// includes the synchronous shootdown (IPIs sent), while under LATR the
// pre-write policy work is the constant-time state save (no IPIs), so the
// measured eviction hold time must be strictly shorter.
func TestConformanceShootdownOrdering(t *testing.T) {
	hold := map[string]sim.Time{}
	for pname, newPolicy := range policies() {
		k, s := conformanceKernel(newPolicy(), remote.New(remote.Config{}))
		reuseCycle(k, s)
		k.Run(200 * sim.Millisecond)
		if k.Metrics.Counter("swap.out") == 0 {
			t.Fatalf("%s: no evictions", pname)
		}
		hold[pname] = k.Metrics.Perc("swap.evict_hold").P50()
	}
	if hold["latr"] >= hold["linux"] {
		t.Fatalf("LATR eviction hold p50 %v not below Linux's %v — the RDMA write is not overlapping the shootdown", hold["latr"], hold["linux"])
	}
}
