package latr_test

import (
	"fmt"
	"strings"
	"testing"

	"latr"
)

func TestQuickstartFlow(t *testing.T) {
	sys := latr.NewSystem(latr.Config{
		Machine:         latr.TwoSocket16,
		Policy:          latr.PolicyLATR,
		CheckInvariants: true,
	})
	p := sys.NewProcess()
	done := false
	p.Spawn(0, latr.Script(
		func(th *latr.Thread) latr.Op {
			return latr.Mmap(4, true).Populate(-1)
		},
		func(th *latr.Thread) latr.Op {
			if th.LastErr != nil {
				t.Fatalf("mmap: %v", th.LastErr)
			}
			return latr.Munmap(th.LastAddr, 4)
		},
		func(th *latr.Thread) latr.Op { done = true; return latr.Op{} },
	))
	sys.Run(10 * latr.Millisecond)
	if !done {
		t.Fatal("script did not finish")
	}
	if sys.Metrics().Hist("munmap.latency").Count() != 1 {
		t.Fatal("munmap latency not recorded")
	}
	if sys.Now() != 10*latr.Millisecond {
		t.Fatalf("Now = %v", sys.Now())
	}
}

func TestAllPoliciesConstruct(t *testing.T) {
	for _, pk := range []latr.PolicyKind{
		latr.PolicyLinux, latr.PolicyLATR, latr.PolicyABIS,
		latr.PolicyBarrelfish, latr.PolicyInstant,
	} {
		sys := latr.NewSystem(latr.Config{Policy: pk})
		if sys.Kernel() == nil {
			t.Fatalf("%s: nil kernel", pk)
		}
		sys.Run(latr.Millisecond)
	}
}

func TestUnknownPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown policy")
		}
	}()
	latr.NewSystem(latr.Config{Policy: "bogus"})
}

// TestTunablesThroughConfig: Config.Tunables reaches the LATR policy. A
// munmap burst fits the paper's 64-state queue, but overflows a 2-state
// one onto the fallback IPIs; a knob outside its bound panics naming it.
func TestTunablesThroughConfig(t *testing.T) {
	burst := func(tun *latr.Tunables) uint64 {
		sys := latr.NewSystem(latr.Config{Policy: latr.PolicyLATR, Tunables: tun})
		p := sys.NewProcess()
		for c := latr.CoreID(1); c <= 3; c++ {
			p.Spawn(c, latr.Script(func(*latr.Thread) latr.Op { return latr.Compute(20 * latr.Millisecond) }))
		}
		n := 0
		p.Spawn(0, latr.Loop(func(th *latr.Thread) latr.Op {
			if n >= 40 {
				return latr.Op{}
			}
			n++
			if n%2 == 1 {
				return latr.Mmap(1, true).Populate(-1)
			}
			return latr.Munmap(th.LastAddr, 1)
		}))
		sys.Run(5 * latr.Millisecond)
		return sys.Metrics().Counter("latr.fallback_ipi")
	}
	if got := burst(nil); got != 0 {
		t.Fatalf("default queue: %d fallback IPIs, want 0", got)
	}
	if got := burst(&latr.Tunables{QueueDepth: 2}); got == 0 {
		t.Fatal("QueueDepth 2: the munmap burst never fell back to IPIs")
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Tunables.QueueDepth") {
			t.Fatalf("panic = %v, want the Tunables.QueueDepth bound error", r)
		}
	}()
	latr.NewSystem(latr.Config{Policy: latr.PolicyLATR, Tunables: &latr.Tunables{QueueDepth: -1}})
}

func TestTuneSearchBadCellIsAnError(t *testing.T) {
	res, err := latr.RunTuneSearch(latr.TuneSearchConfig{
		Quick: true,
		Cells: []latr.TuneCell{{Workload: "churn", Machine: "9x9"}},
	})
	if err == nil || res != nil || !strings.Contains(err.Error(), "churn@9x9") {
		t.Fatalf("RunTuneSearch = %v, %v; want an error naming churn@9x9", res, err)
	}
}

func TestWorkloadThroughPublicAPI(t *testing.T) {
	sys := latr.NewSystem(latr.Config{Policy: latr.PolicyLATR})
	w := latr.NewApache(latr.DefaultApacheConfig(latr.CoreList(4)))
	w.Setup(sys.Kernel())
	sys.Run(50 * latr.Millisecond)
	if w.Requests() == 0 {
		t.Fatal("no requests served")
	}
	var _ latr.Workload = w
}

func TestAutoNUMAViaConfig(t *testing.T) {
	sys := latr.NewSystem(latr.Config{
		Policy:   latr.PolicyLATR,
		AutoNUMA: &latr.AutoNUMAConfig{ScanPeriod: 2 * latr.Millisecond, PagesPerScan: 4096},
	})
	cfg := latr.OceanConfig(latr.CoreList(16))
	cfg.Iterations = 30
	w := latr.NewGrid(cfg)
	w.Setup(sys.Kernel())
	// Processes were created inside Setup; register them by creating via
	// sys.NewProcess in real use. Here verify the balancer at least scans.
	sys.Run(100 * latr.Millisecond)
	if sys.Kernel().Metrics.Counter("sched.ticks") == 0 {
		t.Fatal("system did not run")
	}
}

func TestInvalidSwapConfigPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic for inverted watermarks")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "watermarks inverted") {
			t.Fatalf("panic = %v, want the Validate error", r)
		}
	}()
	latr.NewSystem(latr.Config{
		Policy: latr.PolicyLATR,
		Swap:   &latr.SwapConfig{LowWatermarkFrames: 500, HighWatermarkFrames: 100},
	})
}

func TestPtreplThroughPublicAPI(t *testing.T) {
	cfg, err := latr.PtreplModeByName("replicate-all")
	if err != nil {
		t.Fatal(err)
	}
	sys := latr.NewSystem(latr.Config{
		Machine:         latr.CustomMachine(2, 2),
		Policy:          latr.PolicyLATR,
		Ptrepl:          &cfg,
		CheckInvariants: true,
	})
	if sys.Ptrepl() == nil {
		t.Fatal("Ptrepl manager not installed")
	}
	p := sys.NewProcess()
	p.Spawn(0, latr.Script(
		func(th *latr.Thread) latr.Op {
			return latr.Mmap(4, true).Populate(-1)
		},
		func(th *latr.Thread) latr.Op { return latr.Munmap(th.LastAddr, 4) },
	))
	sys.Run(10 * latr.Millisecond)
	if sys.Metrics().Counter("ptrepl.replicas_created") == 0 {
		t.Fatal("no replica created under replicate-all")
	}
	if got := len(latr.PtreplModes()); got != 5 {
		t.Fatalf("PtreplModes lists %d modes, want 5", got)
	}
	if _, err := latr.PtreplModeByName("warp"); err == nil {
		t.Fatal("unknown ptrepl mode accepted")
	}
}

func TestInvalidPtreplConfigPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic for lazy maintenance without replicas")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "Config.Ptrepl") {
			t.Fatalf("panic = %v, want the Validate error", r)
		}
	}()
	latr.NewSystem(latr.Config{
		Policy: latr.PolicyLATR,
		Ptrepl: &latr.PtreplConfig{Policy: latr.PtreplNone, Lazy: true},
	})
}

func TestRunPtreplExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tbl, err := latr.RunExperiment("ptrepl", latr.ExperimentOptions{Quick: true, Seed: 1, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "ptrepl" || len(tbl.Rows) != 16 {
		t.Fatalf("ptrepl table = id %q, %d rows", tbl.ID, len(tbl.Rows))
	}
}

func TestRemotePagingThroughPublicAPI(t *testing.T) {
	machine := latr.CustomMachine(2, 2)
	machine.MemPerNodeBytes = 1500 * 4096
	sys := latr.NewSystem(latr.Config{
		Machine:     machine,
		Policy:      latr.PolicyLATR,
		Swap:        &latr.SwapConfig{LowWatermarkFrames: 300, HighWatermarkFrames: 500, ScanPeriod: latr.Millisecond, BatchPages: 512},
		SwapBackend: latr.NewRemoteBackend(latr.RemoteBackendConfig{}),
	})
	w := latr.NewMemcached(latr.DefaultMemcachedConfig([]latr.CoreID{1, 2, 3}))
	w.Setup(sys.Kernel())
	sys.RegisterAllForNUMA()
	sys.Run(80 * latr.Millisecond)
	if !w.Loaded() {
		t.Fatal("KV warm-up never finished")
	}
	if sys.Metrics().Counter("swap.out") == 0 || sys.Metrics().Counter("swap.in") == 0 {
		t.Fatalf("no remote paging traffic (out %d, in %d)",
			sys.Metrics().Counter("swap.out"), sys.Metrics().Counter("swap.in"))
	}
	var h *latr.PercentileHist = w.Latency()
	if h.Count() == 0 || h.P99() < h.P50() {
		t.Fatalf("latency histogram broken: count %d, p50 %v, p99 %v", h.Count(), h.P50(), h.P99())
	}
	var _ latr.Workload = w
	var _ latr.SwapBackend = latr.NewRemoteBackend(latr.RemoteBackendConfig{})
}

func TestExperimentRegistry(t *testing.T) {
	ids := latr.Experiments()
	if len(ids) < 14 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	paper := latr.PaperExperiments()
	if len(paper) >= len(ids) {
		t.Fatalf("PaperExperiments (%d) should be a strict subset of Experiments (%d)", len(paper), len(ids))
	}
	found := false
	for _, id := range paper {
		if id == "remote" {
			found = true
		}
	}
	if !found {
		t.Fatal("PaperExperiments missing the remote case study")
	}
	tbl, err := latr.RunExperiment("table3", latr.ExperimentOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "table3" || len(tbl.Rows) == 0 {
		t.Fatalf("table3 = %+v", tbl)
	}
	if _, err := latr.RunExperiment("nope", latr.ExperimentOptions{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTracingThroughConfig(t *testing.T) {
	sys := latr.NewSystem(latr.Config{Policy: latr.PolicyLinux, TraceLimit: 100})
	p := sys.NewProcess()
	p.Spawn(0, latr.Script(
		func(th *latr.Thread) latr.Op {
			return latr.Mmap(1, true).Populate(-1)
		},
		func(th *latr.Thread) latr.Op { return latr.Munmap(th.LastAddr, 1) },
	))
	sys.Run(5 * latr.Millisecond)
	if len(sys.Spans().Timeline()) == 0 {
		t.Fatal("no timeline lines recorded")
	}
}

func TestDefaultCostExposed(t *testing.T) {
	m := latr.DefaultCost(latr.TwoSocket16)
	if m.LATRStateSave == 0 || m.SchedTickPeriod != latr.Millisecond {
		t.Fatalf("cost model looks wrong: %+v", m)
	}
	custom := m
	custom.LATRStateSave = 999
	sys := latr.NewSystem(latr.Config{Policy: latr.PolicyLATR, Cost: &custom})
	if sys.Kernel().Cost.LATRStateSave != 999 {
		t.Fatal("cost override ignored")
	}
}
