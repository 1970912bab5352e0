package ptrepl

import (
	"strings"
	"testing"

	latrcore "latr/internal/core"
	"latr/internal/cost"
	"latr/internal/kernel"
	"latr/internal/pt"
	"latr/internal/shootdown"
	"latr/internal/sim"
	"latr/internal/topo"
)

func replKernel(t *testing.T, pol kernel.Policy, cfg Config) (*kernel.Kernel, *Manager) {
	t.Helper()
	return replKernelTuned(t, pol, cfg, nil)
}

// replKernelTuned builds the test machine with the given kernel knobs.
func replKernelTuned(t *testing.T, pol kernel.Policy, cfg Config, tun *kernel.Tunables) (*kernel.Kernel, *Manager) {
	t.Helper()
	spec := topo.Custom(2, 2)
	spec.MemPerNodeBytes = 64 << 20
	k := kernel.New(spec, cost.Default(spec), pol, kernel.Options{CheckInvariants: true, Seed: 7, Tunables: tun})
	m, err := Install(k, cfg)
	if err != nil {
		t.Fatalf("Install: %v", err)
	}
	return k, m
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Policy: "bogus"},
		{Policy: PolicyNone, Lazy: true},
		{Policy: PolicyAll, Mutation: "explode"},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid config", c)
		}
	}
	for _, p := range []Policy{PolicyNone, PolicyAll, PolicyAdaptive} {
		if err := (Config{Policy: p}).Validate(); err != nil {
			t.Errorf("Validate(%q): %v", p, err)
		}
	}
	for _, mut := range Mutations() {
		if err := (Config{Policy: PolicyAll, Mutation: mut}).Validate(); err != nil {
			t.Errorf("Validate(mutation %q): %v", mut, err)
		}
	}
}

func TestModeByName(t *testing.T) {
	for _, name := range ModeNames() {
		cfg, err := ModeByName(name)
		if err != nil {
			t.Fatalf("ModeByName(%q): %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("ModeByName(%q) produced invalid config: %v", name, err)
		}
		if strings.Contains(name, "lazy") != cfg.Lazy {
			t.Fatalf("ModeByName(%q): Lazy=%v", name, cfg.Lazy)
		}
	}
	if _, err := ModeByName("turbo"); err == nil {
		t.Fatal("ModeByName accepted an unknown mode")
	}
}

// crossSocketWorkload maps pages from core 0 (socket 0), then touches them
// from core 2 (socket 1) once the mapping is up. Returns the process.
func crossSocketWorkload(k *kernel.Kernel, pages int, write bool) *kernel.Process {
	p := k.NewProcess()
	var base pt.VPN
	started := false
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(pages, true).Populate(0)
		},
		func(th *kernel.Thread) kernel.Op {
			base = th.LastAddr
			started = true
			return kernel.Compute(5 * sim.Millisecond)
		},
	))
	touched := false
	p.Spawn(2, kernel.Loop(func(th *kernel.Thread) kernel.Op {
		if !started {
			return kernel.Sleep(20 * sim.Microsecond)
		}
		if touched {
			return kernel.Op{}
		}
		touched = true
		return kernel.TouchRange(base, pages, write)
	}))
	return p
}

func TestNoneChargesRemoteWalks(t *testing.T) {
	k, m := replKernel(t, shootdown.NewLinux(), Config{Policy: PolicyNone})
	crossSocketWorkload(k, 8, false)
	k.Run(20 * sim.Millisecond)
	if got := k.Metrics.Counter("ptrepl.remote_walks"); got == 0 {
		t.Fatal("no remote walks charged under PolicyNone")
	}
	if got := k.Metrics.Counter("ptrepl.replicas_created"); got != 0 {
		t.Fatalf("PolicyNone created %d replicas", got)
	}
	if m.LazyEffective() {
		t.Fatal("eager config reports lazy maintenance")
	}
}

func TestReplicateAllEliminatesRemoteWalks(t *testing.T) {
	k, _ := replKernel(t, shootdown.NewLinux(), Config{Policy: PolicyAll})
	crossSocketWorkload(k, 8, false)
	k.Run(20 * sim.Millisecond)
	if got := k.Metrics.Counter("ptrepl.remote_walks"); got != 0 {
		t.Fatalf("replicate-all charged %d remote walks", got)
	}
	// 2 sockets: one replica beside the master.
	if got := k.Metrics.Counter("ptrepl.replicas_created"); got != 1 {
		t.Fatalf("replicas_created = %d, want 1", got)
	}
	// Teardown on exit returns the gauge to zero.
	k.Run(20 * sim.Millisecond)
	if got := k.Metrics.Gauge("ptrepl.replicas"); got != 0 {
		t.Fatalf("replica gauge %d after exit, want 0", got)
	}
}

func TestAdaptiveReplicatesOnRemoteWalkPressure(t *testing.T) {
	k, _ := replKernelTuned(t, shootdown.NewLinux(), Config{Policy: PolicyAdaptive}, &kernel.Tunables{ReplicateThreshold: 4})
	crossSocketWorkload(k, 8, false)
	k.Run(20 * sim.Millisecond)
	if got := k.Metrics.Counter("ptrepl.remote_walks"); got == 0 {
		t.Fatal("expected some remote walks before the replica appears")
	}
	if got := k.Metrics.Counter("ptrepl.replicas_created"); got != 1 {
		t.Fatalf("replicas_created = %d, want 1", got)
	}
}

func TestAdaptiveMigratesTowardsWriterSocket(t *testing.T) {
	k, m := replKernelTuned(t, shootdown.NewLinux(), Config{Policy: PolicyAdaptive}, &kernel.Tunables{MigrateThreshold: 8})
	p := k.NewProcess()
	started := false
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(4, true).Populate(0)
		},
		func(*kernel.Thread) kernel.Op {
			started = true
			return kernel.Compute(5 * sim.Millisecond)
		},
	))
	step := 0
	p.Spawn(2, kernel.Loop(func(th *kernel.Thread) kernel.Op {
		if !started {
			return kernel.Sleep(20 * sim.Microsecond)
		}
		step++
		switch step {
		case 1:
			// 16 PTE installs from socket 1 dwarf the 4 from socket 0.
			return kernel.Mmap(16, true).Populate(1)
		case 2:
			// Outlive the deadline so the state survives the assertions.
			return kernel.Compute(40 * sim.Millisecond)
		}
		return kernel.Op{}
	}))
	k.Run(20 * sim.Millisecond)
	if got := k.Metrics.Counter("ptrepl.migrations"); got == 0 {
		t.Fatal("no master migration despite writer locality on socket 1")
	}
	if got := m.Master(p.MM); got != 1 {
		t.Fatalf("master on socket %d, want 1", got)
	}
}

func TestLazyDegradesUnderEagerOnlyPolicy(t *testing.T) {
	k, m := replKernel(t, shootdown.NewLinux(), Config{Policy: PolicyAll, Lazy: true})
	if m.LazyEffective() {
		t.Fatal("lazy maintenance claimed under the Linux policy")
	}
	if got := k.Metrics.Counter("ptrepl.lazy_degraded"); got != 1 {
		t.Fatalf("lazy_degraded = %d, want 1", got)
	}
}

func TestLazyParksAndDrainsUnderLATR(t *testing.T) {
	k, m := replKernel(t, latrcore.New(latrcore.Config{}), Config{Policy: PolicyAll, Lazy: true})
	if !m.LazyEffective() {
		t.Fatal("lazy maintenance not in force under LATR")
	}
	p := k.NewProcess()
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(8, true).Populate(0)
		},
		func(th *kernel.Thread) kernel.Op {
			return kernel.Munmap(th.LastAddr, 8)
		},
		// Stay alive well past the 2 ms reclaim horizon so the drain is
		// observed on a live address space, not via exit teardown.
		func(*kernel.Thread) kernel.Op { return kernel.Compute(20 * sim.Millisecond) },
	))
	k.Run(15 * sim.Millisecond)
	if got := k.Metrics.Counter("ptrepl.lazy_parked"); got == 0 {
		t.Fatal("munmap parked no replica invalidations under lazy maintenance")
	}
	if got := k.Metrics.Gauge("ptrepl.stale"); got != 0 {
		t.Fatalf("%d overrides still parked on a live mm after the reclaim horizon", got)
	}
	drained := k.Metrics.Counter("ptrepl.lazy_applied") + k.Metrics.Counter("ptrepl.force_applied")
	if drained == 0 {
		t.Fatal("parked invalidations vanished without a sweep or completion applying them")
	}
}

func TestSkipReplicaMutantLeaksStaleOverrides(t *testing.T) {
	k, _ := replKernel(t, shootdown.NewLinux(), Config{Policy: PolicyAll, Mutation: MutSkipReplica})
	p := k.NewProcess()
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(8, true).Populate(0)
		},
		func(th *kernel.Thread) kernel.Op {
			return kernel.Munmap(th.LastAddr, 8)
		},
	))
	k.Run(20 * sim.Millisecond)
	if got := k.Metrics.Counter("ptrepl.stale_leaked"); got != 8 {
		t.Fatalf("stale_leaked = %d, want 8", got)
	}
	_ = p
}

func TestSkipReplicaMutantServesStaleTranslation(t *testing.T) {
	k, _ := replKernel(t, shootdown.NewLinux(), Config{Policy: PolicyAll, Mutation: MutSkipReplica})
	p := k.NewProcess()
	var base pt.VPN
	unmapped := false
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(4, true).Populate(0)
		},
		func(th *kernel.Thread) kernel.Op {
			base = th.LastAddr
			return kernel.Munmap(th.LastAddr, 4)
		},
		func(*kernel.Thread) kernel.Op {
			unmapped = true
			return kernel.Compute(5 * sim.Millisecond)
		},
	))
	touched := false
	p.Spawn(2, kernel.Loop(func(th *kernel.Thread) kernel.Op {
		if !unmapped {
			return kernel.Sleep(20 * sim.Microsecond)
		}
		if touched {
			return kernel.Op{}
		}
		touched = true
		return kernel.TouchRange(base, 4, false)
	}))
	k.Run(20 * sim.Millisecond)
	if got := k.Metrics.Counter("ptrepl.stale_serves"); got == 0 {
		t.Fatal("skip-one-replica mutant never served a stale translation")
	}
	if got := k.Metrics.Counter("race.stale_read"); got == 0 {
		t.Fatal("stale read-through did not register as a race stale read")
	}
}

func TestLeakReplicaMutantSkipsTeardown(t *testing.T) {
	k, _ := replKernel(t, shootdown.NewLinux(), Config{Policy: PolicyAll, Mutation: MutLeakReplica})
	p := k.NewProcess()
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(4, true).Populate(0)
		},
	))
	k.Run(20 * sim.Millisecond)
	if got := k.Metrics.Counter("ptrepl.leaked_replicas"); got != 1 {
		t.Fatalf("leaked_replicas = %d, want 1", got)
	}
	if got := k.Metrics.Gauge("ptrepl.replicas"); got != 1 {
		t.Fatalf("replica gauge %d after leaky exit, want 1", got)
	}
	_ = p
}

func TestSnapshotReportsReplicasInMMSnapshot(t *testing.T) {
	k, _ := replKernel(t, shootdown.NewLinux(), Config{Policy: PolicyAll})
	p := k.NewProcess()
	p.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(4, true).Populate(0)
		},
		func(*kernel.Thread) kernel.Op { return kernel.Compute(10 * sim.Millisecond) },
	))
	k.Run(5 * sim.Millisecond)
	s := k.SnapshotMM(p.MM)
	if s.ReplReplicas != 1 {
		t.Fatalf("snapshot replicas = %d, want 1", s.ReplReplicas)
	}
}

func TestGuestAddressSpacesAreIgnored(t *testing.T) {
	// Install on a kernel, then drive a nested-paging workload: guest MMs
	// must not grow replication state.
	k, m := replKernel(t, latrcore.New(latrcore.Config{}), Config{Policy: PolicyAll})
	vmh := k.NewVM("vm0", 64)
	gp := k.NewGuestProcess(vmh)
	gp.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(4, true).Populate(0)
		},
		func(th *kernel.Thread) kernel.Op {
			return kernel.TouchRange(th.LastAddr, 4, true)
		},
	))
	k.Run(10 * sim.Millisecond)
	if got, _ := m.Snapshot(gp.MM); got != 0 {
		t.Fatalf("guest mm acquired %d replicas", got)
	}
}

// TestHugeMunmapPropagatesPerBasePage: unmapping a 2 MB mapping in a
// replicated address space clears one PMD on the master but must
// invalidate all 512 base translations on every replica — eagerly as
// per-entry stores, or as 512 parked overrides that fully drain under the
// lazy ablation.
func TestHugeMunmapPropagatesPerBasePage(t *testing.T) {
	run := func(t *testing.T, lazy bool) (*kernel.Kernel, *Manager) {
		k, m := replKernel(t, latrcore.New(latrcore.Config{}),
			Config{Policy: PolicyAll, Lazy: lazy})
		p := k.NewProcess()
		p.Spawn(0, kernel.Script(
			func(*kernel.Thread) kernel.Op {
				return kernel.Mmap(pt.HugePages, true).Populate(0).Huge()
			},
			func(th *kernel.Thread) kernel.Op {
				if th.LastErr != nil {
					t.Errorf("huge mmap: %v", th.LastErr)
					return kernel.Op{}
				}
				return kernel.Munmap(th.LastAddr, pt.HugePages)
			},
			func(th *kernel.Thread) kernel.Op {
				if th.LastErr != nil {
					t.Errorf("huge munmap: %v", th.LastErr)
				}
				// Outlive the sweep window so the parked overrides drain
				// while the address space is still alive.
				return kernel.Compute(20 * sim.Millisecond)
			},
		))
		k.Run(30 * sim.Millisecond)
		return k, m
	}

	t.Run("eager", func(t *testing.T) {
		k, _ := run(t, false)
		if got := k.Metrics.Counter("ptrepl.updates"); got < pt.HugePages {
			t.Fatalf("eager huge munmap drove %d replica stores, want >= %d", got, pt.HugePages)
		}
		if got := k.Metrics.Counter("ptrepl.lazy_parked"); got != 0 {
			t.Fatalf("eager maintenance parked %d overrides", got)
		}
	})
	t.Run("lazy", func(t *testing.T) {
		k, _ := run(t, true)
		if got := k.Metrics.Counter("ptrepl.lazy_parked"); got != pt.HugePages {
			t.Fatalf("lazy huge munmap parked %d overrides, want %d (one per base page)", got, pt.HugePages)
		}
		if got := k.Metrics.Gauge("ptrepl.stale"); got != 0 {
			t.Fatalf("%d parked overrides never drained", got)
		}
		applied := k.Metrics.Counter("ptrepl.lazy_applied") + k.Metrics.Counter("ptrepl.force_applied")
		if applied != pt.HugePages {
			t.Fatalf("drained %d overrides, want %d", applied, pt.HugePages)
		}
	})
}

// TestGuestHugeMmapRejectedAndUntracked: guests cannot establish huge
// mappings (the syscall layer rejects Huge under nested paging), and the
// failed attempt must not leave replication state on the guest mm.
func TestGuestHugeMmapRejectedAndUntracked(t *testing.T) {
	k, m := replKernel(t, latrcore.New(latrcore.Config{}), Config{Policy: PolicyAll})
	vmh := k.NewVM("vm0", 1024)
	gp := k.NewGuestProcess(vmh)
	var rejected bool
	gp.Spawn(0, kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(pt.HugePages, true).Populate(0).Huge()
		},
		func(th *kernel.Thread) kernel.Op {
			rejected = th.LastErr != nil
			return kernel.Op{}
		},
	))
	k.Run(10 * sim.Millisecond)
	if !rejected {
		t.Fatal("guest huge mmap unexpectedly succeeded")
	}
	if got, _ := m.Snapshot(gp.MM); got != 0 {
		t.Fatalf("rejected guest mmap left %d replicas", got)
	}
}

// TestManagerAccessors pins the introspection surface used by the
// experiment harness and debug output: the effective config after
// defaulting, the maintenance-mode report, and the master query on an
// address space the manager has never seen.
func TestManagerAccessors(t *testing.T) {
	k, m := replKernel(t, latrcore.New(latrcore.Config{}), Config{Policy: PolicyAll, Lazy: true})
	if !k.ReplHandlerInstalled() {
		t.Fatal("Install did not register the replication handler")
	}
	if !m.LazyEffective() {
		t.Fatal("lazy maintenance not effective under the LATR policy")
	}
	if cfg := m.Config(); cfg.Policy != PolicyAll || !cfg.Lazy {
		t.Fatalf("config = %+v", cfg)
	}
	// The adaptive thresholds come from the kernel's Tunables: the paper
	// defaults here, the given values on a tuned kernel.
	if m.replicateThreshold != 16 || m.migrateThreshold != 256 {
		t.Fatalf("default thresholds = %d/%d, want 16/256", m.replicateThreshold, m.migrateThreshold)
	}
	if _, tm := replKernelTuned(t, shootdown.NewLinux(), Config{Policy: PolicyAdaptive},
		&kernel.Tunables{ReplicateThreshold: 3, MigrateThreshold: 5}); tm.replicateThreshold != 3 || tm.migrateThreshold != 5 {
		t.Fatalf("tuned thresholds = %d/%d, want 3/5", tm.replicateThreshold, tm.migrateThreshold)
	}
	if got := m.String(); got != "ptrepl(replicate-all, lazy)" {
		t.Fatalf("String() = %q", got)
	}
	p := k.NewProcess()
	if got := m.Master(p.MM); got != -1 {
		t.Fatalf("Master before first contact = %d, want -1", got)
	}
	// A sweep over an untracked address space must be free.
	if d := m.SweepApply(k.Cores[0], p.MM, 0, 8); d != 0 {
		t.Fatalf("SweepApply on untracked mm charged %v", d)
	}

	eager, err := Install(kernel.New(topo.Custom(2, 2), cost.Default(topo.Custom(2, 2)), shootdown.NewLinux(), kernel.Options{Seed: 7}), Config{Policy: PolicyAdaptive})
	if err != nil {
		t.Fatal(err)
	}
	if eager.LazyEffective() {
		t.Fatal("eager manager reports lazy maintenance")
	}
	if got := eager.String(); got != "ptrepl(adaptive, eager)" {
		t.Fatalf("String() = %q", got)
	}
}
