package workload

import (
	"testing"

	latrcore "latr/internal/core"
	"latr/internal/cost"
	"latr/internal/kernel"
	"latr/internal/shootdown"
	"latr/internal/sim"
	"latr/internal/topo"
)

func kern16(pol kernel.Policy) *kernel.Kernel {
	return kernel.New(topo.TwoSocket16(), cost.Default(topo.TwoSocket16()), pol,
		kernel.Options{CheckInvariants: true, Seed: 11})
}

func coresN(n int) []topo.CoreID {
	out := make([]topo.CoreID, n)
	for i := range out {
		out[i] = topo.CoreID(i)
	}
	return out
}

func TestBarrier(t *testing.T) {
	k := kern16(kernel.NewInstantPolicy())
	b := NewBarrier(k, 3)
	p := k.NewProcess()
	var order []sim.Time
	for i := 0; i < 3; i++ {
		delay := sim.Time(i+1) * 10 * sim.Microsecond
		p.Spawn(topo.CoreID(i), kernel.Script(
			func(*kernel.Thread) kernel.Op { return kernel.Sleep(delay) },
			func(*kernel.Thread) kernel.Op { return b.Wait() },
			func(*kernel.Thread) kernel.Op { order = append(order, k.Now()); return kernel.Op{} },
		))
	}
	k.Run(sim.Millisecond)
	if len(order) != 3 {
		t.Fatalf("only %d threads passed the barrier", len(order))
	}
	// Nobody passes before the last arrival at ~30us.
	for _, at := range order {
		if at < 30*sim.Microsecond {
			t.Fatalf("thread passed barrier at %v, before last arrival", at)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	k := kern16(kernel.NewInstantPolicy())
	b := NewBarrier(k, 2)
	p := k.NewProcess()
	counts := [2]int{}
	for i := 0; i < 2; i++ {
		i := i
		n := 0
		p.Spawn(topo.CoreID(i), kernel.Loop(func(*kernel.Thread) kernel.Op {
			if n >= 5 {
				return kernel.Op{}
			}
			n++
			counts[i]++
			return b.Wait()
		}))
	}
	k.Run(10 * sim.Millisecond)
	if counts[0] != 5 || counts[1] != 5 {
		t.Fatalf("barrier generations broken: %v", counts)
	}
	if k.LiveThreads() != 0 {
		t.Fatal("threads stuck on barrier")
	}
}

func TestGate(t *testing.T) {
	k := kern16(kernel.NewInstantPolicy())
	g := NewGate(k)
	p := k.NewProcess()
	passed := false
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op { return g.Wait() },
		func(*kernel.Thread) kernel.Op { passed = true; return kernel.Op{} },
	))
	k.Run(100 * sim.Microsecond)
	if passed {
		t.Fatal("gate let a thread through while closed")
	}
	g.Open()
	k.Run(200 * sim.Microsecond)
	if !passed {
		t.Fatal("gate never opened")
	}
	// Late waiter passes immediately.
	late := false
	p.Spawn(1, kernel.Script(
		func(*kernel.Thread) kernel.Op { return g.Wait() },
		func(*kernel.Thread) kernel.Op { late = true; return kernel.Op{} },
	))
	k.Run(400 * sim.Microsecond)
	if !late {
		t.Fatal("open gate blocked a late waiter")
	}
}

func TestMicroCompletesAndMeasures(t *testing.T) {
	k := kern16(shootdown.NewLinux())
	m := NewMicro(MicroConfig{Cores: 4, Pages: 1, Iters: 50})
	m.Setup(k)
	k.Run(2 * sim.Second)
	if !m.Done() {
		t.Fatalf("micro did not finish: %d iters", m.Iterations())
	}
	if got := k.Metrics.Hist("munmap.latency").Count(); got != 50 {
		t.Fatalf("munmap samples = %d, want 50", got)
	}
	if k.Metrics.Counter("shootdown.ipi") == 0 {
		t.Fatal("no shootdown IPIs under Linux with 4 sharers")
	}
}

func TestMicroFig6Shape(t *testing.T) {
	// The Fig 6 headline at 16 cores: Linux munmap ~8us with ~70% in the
	// shootdown; LATR ~2.4us, a >60% improvement.
	run := func(pol kernel.Policy) (lat, sd sim.Time) {
		k := kern16(pol)
		m := NewMicro(MicroConfig{Cores: 16, Pages: 1, Iters: 60})
		m.Setup(k)
		k.Run(2 * sim.Second)
		if !m.Done() {
			t.Fatal("micro did not finish")
		}
		return k.Metrics.Hist("munmap.latency").Mean(), k.Metrics.Hist("munmap.shootdown").Mean()
	}
	linuxLat, linuxSd := run(shootdown.NewLinux())
	latrLat, latrSd := run(latrcore.New(latrcore.Config{}))

	if linuxLat < 5*sim.Microsecond || linuxLat > 12*sim.Microsecond {
		t.Errorf("Linux munmap @16 cores = %v, want ~8us", linuxLat)
	}
	frac := float64(linuxSd) / float64(linuxLat)
	if frac < 0.5 || frac > 0.85 {
		t.Errorf("Linux shootdown fraction = %.2f, want ~0.72", frac)
	}
	if latrLat > 4*sim.Microsecond {
		t.Errorf("LATR munmap @16 cores = %v, want ~2.4us", latrLat)
	}
	improvement := 1 - float64(latrLat)/float64(linuxLat)
	if improvement < 0.5 {
		t.Errorf("LATR improvement = %.1f%%, want ~70%%", improvement*100)
	}
	if latrSd > 500 {
		t.Errorf("LATR critical-path shootdown = %v, want ~132ns", latrSd)
	}
}

func TestApacheThroughputShape(t *testing.T) {
	// Fig 9 directional check at 12 cores: LATR should clearly outperform
	// Linux, and LATR should sustain a higher shootdown rate.
	run := func(pol kernel.Policy) (reqs, shootdowns uint64) {
		k := kern16(pol)
		a := NewApache(DefaultApacheConfig(coresN(12)))
		a.Setup(k)
		k.Run(300 * sim.Millisecond)
		return a.Requests(), k.Metrics.Counter("shootdown.initiated")
	}
	linuxReqs, linuxSd := run(shootdown.NewLinux())
	latrReqs, latrSd := run(latrcore.New(latrcore.Config{}))
	if latrReqs <= linuxReqs {
		t.Fatalf("LATR requests (%d) should exceed Linux (%d)", latrReqs, linuxReqs)
	}
	gain := float64(latrReqs)/float64(linuxReqs) - 1
	if gain < 0.2 {
		t.Errorf("LATR gain = %.1f%%, want substantial (paper: 59.9%%)", gain*100)
	}
	if latrSd <= linuxSd {
		t.Errorf("LATR handled %d shootdowns vs Linux %d; paper says LATR handles ~46%% more", latrSd, linuxSd)
	}
	t.Logf("linux=%d reqs (%d sd), latr=%d reqs (%d sd), gain=%.1f%%",
		linuxReqs, linuxSd, latrReqs, latrSd, gain*100)
}

func TestNginxFewShootdowns(t *testing.T) {
	k := kern16(shootdown.NewLinux())
	n := NewNginx(coresN(1))
	n.Setup(k)
	k.Run(200 * sim.Millisecond)
	if n.Requests() == 0 {
		t.Fatal("nginx served nothing")
	}
	perSec := float64(k.Metrics.Counter("shootdown.initiated")) / 0.2
	if perSec > 50 {
		t.Fatalf("nginx shootdown rate = %.0f/s, want ~0 (Fig 12)", perSec)
	}
}
