package workload_test

import (
	"testing"

	latrcore "latr/internal/core"
	"latr/internal/cost"
	"latr/internal/kernel"
	"latr/internal/remote"
	"latr/internal/shootdown"
	"latr/internal/sim"
	"latr/internal/swap"
	"latr/internal/topo"
	"latr/internal/workload"
)

// runMemcached drives the KV server under memory pressure with the
// remote-memory backend for runFor of simulated time.
func runMemcached(t *testing.T, pol kernel.Policy, seed uint64, runFor sim.Time) (*kernel.Kernel, *workload.Memcached) {
	t.Helper()
	spec := topo.Custom(2, 2)
	spec.MemPerNodeBytes = 1500 * 4096
	k := kernel.New(spec, cost.Default(spec), pol, kernel.Options{CheckInvariants: true, Seed: seed})
	s := swap.NewWithBackend(swap.Config{
		LowWatermarkFrames:  300,
		HighWatermarkFrames: 500,
		ScanPeriod:          sim.Millisecond,
		BatchPages:          512,
	}, remote.New(remote.Config{}))
	s.Install(k)
	cfg := workload.DefaultMemcachedConfig([]topo.CoreID{1, 2, 3})
	cfg.Seed = seed
	w := workload.NewMemcached(cfg)
	w.Setup(k)
	s.Register(w.Proc())
	k.Run(runFor)
	return k, w
}

func TestMemcachedUnderPressure(t *testing.T) {
	for _, pc := range []struct {
		name string
		pol  func() kernel.Policy
	}{
		{"linux", func() kernel.Policy { return shootdown.NewLinux() }},
		{"latr", func() kernel.Policy { return latrcore.New(latrcore.Config{}) }},
	} {
		t.Run(pc.name, func(t *testing.T) {
			k, w := runMemcached(t, pc.pol(), 11, 120*sim.Millisecond)
			if !w.Loaded() {
				t.Fatal("warm-up never finished")
			}
			if w.Requests() == 0 {
				t.Fatal("no requests completed")
			}
			// The arena (4096 pages) exceeds one node's memory (1500
			// frames); the warm-up alone must force evictions, and cold
			// GETs must swap back in.
			if k.Metrics.Counter("swap.out") == 0 {
				t.Fatal("no evictions — the working set is not exceeding memory")
			}
			if k.Metrics.Counter("swap.in") == 0 {
				t.Fatal("no swap-ins — cold keys never faulted from the remote node")
			}
			lat := w.Latency()
			if lat.Count() == 0 {
				t.Fatal("no request latencies recorded")
			}
			if lat.P999() < lat.P50() {
				t.Fatalf("p99.9 %v < p50 %v", lat.P999(), lat.P50())
			}
		})
	}
}

func TestMemcachedDeterminism(t *testing.T) {
	fp := func() uint64 {
		k, _ := runMemcached(t, latrcore.New(latrcore.Config{}), 23, 60*sim.Millisecond)
		return k.Metrics.Fingerprint()
	}
	if a, b := fp(), fp(); a != b {
		t.Fatalf("identical runs diverge: %016x vs %016x", a, b)
	}
}
