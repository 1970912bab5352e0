package chaos

import (
	"testing"

	"latr/internal/sim"
)

// sweepRun is the shared shape for the acceptance sweep: smaller machine
// and shorter horizon than the defaults so the full seed x profile matrix
// stays fast, but still bursty enough to overflow a shrunken queue.
func sweepRun(seed uint64, prof Profile) Result {
	return Run(RunConfig{
		Seed:           seed,
		Profile:        prof,
		Sockets:        2,
		CoresPerSocket: 2,
		Duration:       20 * sim.Millisecond,
	})
}

// TestChaosSweep is the acceptance sweep: 20 seeds x 3 fault profiles,
// every run must finish (no deadlock) with zero auditor violations, and
// the overflow-pressure profile must actually exercise the fallback-IPI
// path.
func TestChaosSweep(t *testing.T) {
	profs := []string{"tick-drop", "reclaim-stall", "overflow-pressure"}
	fallbacks := map[string]uint64{}
	for _, name := range profs {
		prof, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 20; seed++ {
			r := sweepRun(seed, prof)
			if r.Deadlocked {
				t.Errorf("%v", r)
				continue
			}
			if len(r.Violations) != 0 {
				t.Errorf("%v\n%s", r, r.Report)
			}
			if r.Faults == 0 {
				t.Errorf("chaos(seed=%d profile=%s): schedule injected no faults", seed, name)
			}
			fallbacks[name] += r.FallbackIPIs
		}
	}
	if fallbacks["overflow-pressure"] == 0 {
		t.Error("overflow-pressure sweep never took the fallback-IPI path")
	}
}

// TestChaosDeterminism re-runs one config per profile and requires the
// full determinism triple — trace digest, metrics fingerprint, engine
// fingerprint — to match exactly, and to match the pinned values: a knob
// that stops reaching the kernel (overflow-pressure's QueueDepth,
// unsafe-reclaim's ReclaimDelay) moves its profile's triple.
func TestChaosDeterminism(t *testing.T) {
	pins := map[string][3]uint64{
		"jitter":            {0x221fb7f765a6bcfb, 0xf37b90ce0d953e1f, 0xd5122837f360d306},
		"overflow-pressure": {0xb2c030a293980f73, 0xdf3fd78302f780ab, 0x076db2d43163ab46},
		"reclaim-stall":     {0xe8fd132d3a3e3ff0, 0x63e25dacf151b2ad, 0x2b1e80347ffecb7e},
		"tick-drop":         {0x449f8a9f1f432463, 0x0eac5214d4979a08, 0x16ad7cb49ac1db71},
		"unsafe-reclaim":    {0xe8e406410404459a, 0x41cb35d2374a9567, 0x435a7e276f1959ae},
	}
	for _, name := range Profiles() {
		prof, _ := ProfileByName(name)
		a := sweepRun(77, prof)
		b := sweepRun(77, prof)
		if got := [3]uint64{a.TraceDigest, a.MetricsFP, a.EngineFP}; got != pins[name] {
			t.Errorf("%s: determinism triple %#x, pinned %#x", name, got, pins[name])
		}
		if a.TraceDigest != b.TraceDigest {
			t.Errorf("%s: trace digests differ: %#x vs %#x", name, a.TraceDigest, b.TraceDigest)
		}
		if a.MetricsFP != b.MetricsFP {
			t.Errorf("%s: metrics fingerprints differ: %#x vs %#x", name, a.MetricsFP, b.MetricsFP)
		}
		if a.EngineFP != b.EngineFP {
			t.Errorf("%s: engine fingerprints differ: %#x vs %#x", name, a.EngineFP, b.EngineFP)
		}
		if a.Report != b.Report {
			t.Errorf("%s: violation reports differ:\n%s\nvs\n%s", name, a.Report, b.Report)
		}
	}
}

// TestUnsafeReclaimCaught is the negative test: the unsafe-reclaim
// profile frees lazy memory while states are live, and the auditor must
// catch the breach — structured violations, not a panic — and reproduce
// it byte-identically from the seed.
func TestUnsafeReclaimCaught(t *testing.T) {
	prof, err := ProfileByName("unsafe-reclaim")
	if err != nil {
		t.Fatal(err)
	}
	var caught bool
	var seedHit uint64
	for seed := uint64(1); seed <= 10; seed++ {
		r := sweepRun(seed, prof)
		if r.Deadlocked {
			t.Fatalf("%v", r)
		}
		if len(r.Violations) > 0 {
			caught, seedHit = true, seed
			break
		}
	}
	if !caught {
		t.Fatal("unsafe reclaim never produced an auditor violation in 10 seeds")
	}
	a := sweepRun(seedHit, prof)
	b := sweepRun(seedHit, prof)
	if a.Report == "" || a.Report != b.Report {
		t.Fatalf("violation report not byte-identical across replays:\n%q\nvs\n%q", a.Report, b.Report)
	}
	if a.TraceDigest != b.TraceDigest || a.MetricsFP != b.MetricsFP {
		t.Fatal("negative run did not replay identically from its seed")
	}
}

// TestTinyQueueNoDeadlock is the regression for the overflow degradation
// path: QueueDepth=2 saturated by concurrent munmap bursts on every core
// must complete with no deadlock, no violation, and more fallback IPIs
// than the paper's 64-deep queue takes on the same workload (which
// overflows too, so a bare nonzero count would not show the depth
// reached the kernel).
func TestTinyQueueNoDeadlock(t *testing.T) {
	run := func(depth int) Result {
		return Run(RunConfig{
			Seed:           3,
			Profile:        Profile{Name: "none", QueueDepth: depth}, // pure workload pressure, no injected faults
			Sockets:        2,
			CoresPerSocket: 2,
			Duration:       20 * sim.Millisecond,
		})
	}
	r, paper := run(2), run(0)
	if r.Deadlocked {
		t.Fatalf("%v", r)
	}
	if len(r.Violations) != 0 {
		t.Fatalf("violations under queue saturation:\n%s", r.Report)
	}
	if r.FallbackIPIs <= paper.FallbackIPIs {
		t.Fatalf("QueueDepth=2 burst took %d fallback IPIs, the paper depth %d", r.FallbackIPIs, paper.FallbackIPIs)
	}
}

// TestInjectorFaultAccounting pins the injector's metric side: a profile
// that drops ticks must show chaos.tick_dropped, and quiesce windows must
// register.
func TestInjectorFaultAccounting(t *testing.T) {
	prof, _ := ProfileByName("tick-drop")
	r := sweepRun(5, prof)
	if r.Faults == 0 {
		t.Fatal("no faults recorded")
	}
}
