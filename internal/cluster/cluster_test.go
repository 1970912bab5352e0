package cluster

import (
	"testing"

	"latr/internal/chaos"
	"latr/internal/sim"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Seed = 11
	cfg.Duration = 20 * sim.Millisecond
	return cfg
}

func profile(t *testing.T, name string) chaos.ClusterProfile {
	t.Helper()
	p, err := chaos.ClusterProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkIdentities asserts the request-count identities that make the
// accounting trustworthy: every offered request resolves exactly once,
// the latency histogram holds exactly the completed requests (a retried
// or hedged request appears once, not once per attempt), and the
// per-class SLO counters partition the offered stream.
func checkIdentities(t *testing.T, cl *Cluster, r Result) {
	t.Helper()
	if r.Offered != r.Completed+r.Failed {
		t.Errorf("offered %d != completed %d + failed %d", r.Offered, r.Completed, r.Failed)
	}
	if got := r.Latency.Count(); got != r.Completed {
		t.Errorf("latency histogram holds %d samples, want completed %d", got, r.Completed)
	}
	met := cl.Metrics()
	sloSum := met.Counter("cluster.hot.slo_met") + met.Counter("cluster.hot.slo_miss") +
		met.Counter("cluster.cold.slo_met") + met.Counter("cluster.cold.slo_miss")
	if sloSum != r.Offered {
		t.Errorf("SLO class counters sum to %d, want offered %d", sloSum, r.Offered)
	}
	if rec := met.Counter("cluster.recovered"); rec > r.Completed {
		t.Errorf("recovered %d exceeds completed %d", rec, r.Completed)
	}
}

func TestFaultFreeRunCompletesEverything(t *testing.T) {
	cl := New(testConfig())
	r := cl.Run()
	if r.Completed == 0 {
		t.Fatal("no requests completed")
	}
	if r.Failed != 0 {
		t.Fatalf("fault-free underloaded run failed %d requests", r.Failed)
	}
	if r.Attempts != r.Offered {
		t.Fatalf("fault-free run took %d attempts for %d requests", r.Attempts, r.Offered)
	}
	if r.Violations != 0 {
		t.Fatalf("%d coherence violations in a clean run", r.Violations)
	}
	checkIdentities(t, cl, r)
}

// TestRetriesNeverDoubleCount is the accounting acceptance test: under an
// aggressive crash schedule many requests need several attempts, and the
// throughput counters must still balance exactly — a retried request
// completes once, appears in the latency histogram once, and never lands
// in both Completed and Failed.
func TestRetriesNeverDoubleCount(t *testing.T) {
	cfg := testConfig()
	cfg.Duration = 30 * sim.Millisecond
	cfg.HedgeDelay = sim.Millisecond
	cfg.Profile = chaos.ClusterProfile{
		Name:         "crash-storm",
		CrashMeanGap: 10 * sim.Millisecond,
		CrashDownMin: 3 * sim.Millisecond,
		CrashDownMax: 6 * sim.Millisecond,
	}
	cl := New(cfg)
	r := cl.Run()
	if r.Retries == 0 {
		t.Fatal("crash storm produced no retries; the test is not exercising the pipeline")
	}
	if r.Refused == 0 {
		t.Fatal("crash storm produced no refused attempts")
	}
	if r.Attempts <= r.Offered {
		t.Fatalf("attempts %d should exceed offered %d under retries", r.Attempts, r.Offered)
	}
	if r.Completed == 0 {
		t.Fatal("nothing completed under the crash storm")
	}
	if r.Violations != 0 {
		t.Fatalf("%d coherence violations under node crashes", r.Violations)
	}
	checkIdentities(t, cl, r)
}

// TestNodeCrashProfile runs the registered node-crash profile with the
// auditor on: the fleet degrades (refused/reset attempts, retries) but
// stays coherent — zero auditor findings on every node.
func TestNodeCrashProfile(t *testing.T) {
	cfg := testConfig()
	cfg.Duration = 40 * sim.Millisecond
	cfg.Profile = profile(t, "node-crash")
	cl := New(cfg)
	r := cl.Run()
	if got := cl.Metrics().Counter("cluster.faults.crash"); got == 0 {
		t.Fatal("node-crash profile injected no crashes in 40ms")
	}
	if r.Violations != 0 {
		t.Fatalf("%d coherence violations under node-crash", r.Violations)
	}
	if r.Completed == 0 {
		t.Fatal("nothing completed under node-crash")
	}
	checkIdentities(t, cl, r)
}

// TestQueueOverflowSheds: an overload against four workers per node
// means node queues hit the profile's tiny depth and shed; shed attempts
// feed retries and the identities still hold.
func TestQueueOverflowSheds(t *testing.T) {
	cfg := testConfig()
	cfg.ArrivalRate = 700000
	cfg.Duration = 10 * sim.Millisecond
	cfg.Profile = profile(t, "queue-overflow")
	cl := New(cfg)
	r := cl.Run()
	if r.Shed == 0 {
		t.Fatal("overloaded 4-deep queues shed nothing")
	}
	checkIdentities(t, cl, r)
}

// TestHedgingCompletesOnce: with a hedge delay inside the latency
// distribution's tail, hedges fire — and hedged requests still complete
// exactly once (first reply wins, the sibling is wasted work).
func TestHedgingCompletesOnce(t *testing.T) {
	cfg := testConfig()
	cfg.HedgeDelay = 30 * sim.Microsecond
	cl := New(cfg)
	r := cl.Run()
	if r.Hedges == 0 {
		t.Fatal("no hedges fired with a 30µs hedge delay")
	}
	if r.Failed != 0 {
		t.Fatalf("hedging made %d requests fail", r.Failed)
	}
	met := cl.Metrics()
	if met.Counter("cluster.hedge_wasted")+met.Counter("cluster.late_replies") == 0 {
		t.Fatal("hedges fired but no sibling was ever wasted; dedup path untested")
	}
	checkIdentities(t, cl, r)
}

// TestDeterministicDigest: the whole cluster — kernels, faults, router,
// retries — is a pure function of the seed.
func TestDeterministicDigest(t *testing.T) {
	run := func(seed uint64, prof string) uint64 {
		cfg := testConfig()
		cfg.Seed = seed
		cfg.HedgeDelay = sim.Millisecond
		cfg.Profile = profile(t, prof)
		return New(cfg).Run().Digest
	}
	if a, b := run(11, "node-crash"), run(11, "node-crash"); a != b {
		t.Fatalf("identical seeded runs diverge: %016x vs %016x", a, b)
	}
	if a, b := run(11, "flaky-fleet"), run(11, "flaky-fleet"); a != b {
		t.Fatalf("identical flaky-fleet runs diverge: %016x vs %016x", a, b)
	}
	if a, b := run(11, "node-crash"), run(12, "node-crash"); a == b {
		t.Fatal("different seeds produced identical digests")
	}
}

// TestPinnedDigests: the digest — and therefore every metric, span,
// fault outcome and the wire's delivery order folded into it — matches
// pinned values. The node-crash case runs 40ms because that is the
// shortest of the measured runs whose digest changes when the wire
// schedules each send directly instead of at the window barrier
// (DESIGN.md §13).
func TestPinnedDigests(t *testing.T) {
	for _, tc := range []struct {
		name, prof string
		d          sim.Time
		want       uint64
	}{
		{"fault-free", "", 20 * sim.Millisecond, 0xdc9b3feddfab3524},
		{"flaky-fleet", "flaky-fleet", 20 * sim.Millisecond, 0xe67ce0f88e449d6e},
		{"node-crash", "node-crash", 40 * sim.Millisecond, 0x0ddfe5a424676aa7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Duration = tc.d
			cfg.HedgeDelay = sim.Millisecond
			cfg.Profile = profile(t, tc.prof)
			if got := New(cfg).Run().Digest; got != tc.want {
				t.Errorf("digest %016x, want %016x", got, tc.want)
			}
		})
	}
}

func TestRunTwicePanics(t *testing.T) {
	cl := New(testConfig())
	cl.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	cl.Run()
}
