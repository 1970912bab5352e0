package swap

import (
	"testing"

	latrcore "latr/internal/core"
	"latr/internal/cost"
	"latr/internal/kernel"
	"latr/internal/pt"
	"latr/internal/shootdown"
	"latr/internal/sim"
	"latr/internal/topo"
)

// tinyKernel has only 1024 frames per node, so memory pressure is easy to
// produce.
func tinyKernel(pol kernel.Policy) (*kernel.Kernel, *Swapper) {
	spec := topo.Custom(2, 2)
	spec.MemPerNodeBytes = 1024 * 4096
	k := kernel.New(spec, cost.Default(spec), pol, kernel.Options{CheckInvariants: true, Seed: 13})
	s := New(Config{
		LowWatermarkFrames:  300,
		HighWatermarkFrames: 500,
		ScanPeriod:          sim.Millisecond,
		BatchPages:          256,
	})
	s.Install(k)
	return k, s
}

// pressureWorkload maps hot+cold regions on node 0 until pressure, keeps
// touching the hot region, and later revisits the cold one.
func pressureWorkload(k *kernel.Kernel, s *Swapper) (hot, cold *pt.VPN, revisitFaults *int) {
	p := k.NewProcess()
	s.Register(p)
	hot, cold = new(pt.VPN), new(pt.VPN)
	revisitFaults = new(int)
	touches := 0
	step := 0
	p.Spawn(0, kernel.Loop(func(th *kernel.Thread) kernel.Op {
		switch step {
		case 0:
			step = 1
			return kernel.Mmap(400, true).Populate(0)
		case 1:
			*cold = th.LastAddr
			step = 2
			return kernel.TouchRange(*cold, 400, true)
		case 2:
			step = 3
			return kernel.Mmap(500, true).Populate(0)
		case 3:
			*hot = th.LastAddr
			step = 4
			return kernel.TouchRange(*hot, 500, true)
		case 4: // keep the hot set hot while the swapper works
			touches++
			if touches > 40 {
				step = 5
			}
			return kernel.TouchRange(*hot, 500, true)
		case 5: // revisit the cold region: swapped pages must fault back in
			step = 6
			return kernel.TouchRange(*cold, 400, true)
		case 6:
			*revisitFaults = th.LastFault
			return kernel.Op{}
		default:
			panic("unreachable")
		}
	}))
	return hot, cold, revisitFaults
}

func TestSwapOutUnderPressure(t *testing.T) {
	for _, pol := range []kernel.Policy{shootdown.NewLinux(), latrcore.New(latrcore.Config{})} {
		k, s := tinyKernel(pol)
		_, _, revisit := pressureWorkload(k, s)
		k.Run(200 * sim.Millisecond)
		if got := k.Metrics.Counter("swap.out"); got == 0 {
			t.Fatalf("%s: no pages swapped out under pressure", pol.Name())
		}
		if got := k.Metrics.Counter("swap.in"); got == 0 {
			t.Fatalf("%s: revisited cold pages never swapped back in", pol.Name())
		}
		if *revisit != 0 {
			t.Fatalf("%s: cold revisit segfaulted %d times (swap-in must be transparent)", pol.Name(), *revisit)
		}
		if k.LiveThreads() > 1 { // swapper kthread remains
			t.Fatalf("%s: workload did not finish", pol.Name())
		}
	}
}

func TestSwapPrefersColdPages(t *testing.T) {
	k, s := tinyKernel(shootdown.NewLinux())
	hot, cold, _ := pressureWorkload(k, s)
	k.Run(60 * sim.Millisecond)
	if k.Metrics.Counter("swap.out") == 0 {
		t.Skip("no pressure reached in window")
	}
	// Count surviving resident pages: the hot region should be mostly
	// resident, the cold one mostly swapped.
	resident := func(base pt.VPN, n int) int {
		mm := k.Processes()[1].MM // 0 is the swapper host
		r := 0
		for i := 0; i < n; i++ {
			if _, ok := mm.PT.Get(base + pt.VPN(i)); ok {
				r++
			}
		}
		return r
	}
	hotRes := resident(*hot, 500)
	coldRes := resident(*cold, 400)
	if hotRes <= coldRes {
		t.Fatalf("clock hand evicted hot pages first: hot resident %d/500, cold resident %d/400", hotRes, coldRes)
	}
}

func TestLATRSwapIsLazy(t *testing.T) {
	// Under LATR the swap-out frees frames through lazy reclamation: the
	// §3 claim that the swap can complete "after the last core has
	// invalidated". The invariant checker proves no early reuse; here we
	// additionally confirm the lazy path was used (no IPIs).
	k2, s2 := tinyKernel(latrcore.New(latrcore.Config{}))
	pressureWorkload(k2, s2)
	k2.Run(100 * sim.Millisecond)
	if k2.Metrics.Counter("swap.out") == 0 {
		t.Fatal("no swap-outs")
	}
	if got := k2.Metrics.Counter("shootdown.ipi"); got != 0 {
		t.Fatalf("LATR swap-out sent %d IPIs; should use lazy states", got)
	}
	if k2.Metrics.Counter("latr.reclaimed") == 0 {
		t.Fatal("swapped frames never passed through lazy reclamation")
	}
}
