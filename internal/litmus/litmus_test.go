package litmus

import (
	"testing"
)

// TestScenariosValidate ensures the built-in corpus parses and validates.
func TestScenariosValidate(t *testing.T) {
	scs := Scenarios()
	if len(scs) < 15 {
		t.Fatalf("built-in corpus has %d scenarios, want >= 15", len(scs))
	}
	names := map[string]bool{}
	for _, sc := range scs {
		if names[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		names[sc.Name] = true
	}
}

// TestSingleScenario runs each built-in scenario under each policy on the
// small topology individually, for precise failure attribution.
func TestSingleScenario(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			var outs []Outcome
			for _, pol := range DefaultPolicies {
				out := RunScenario(sc, RunConfig{Policy: pol, Topo: "2x8", Seed: 7})
				if out.Skipped {
					continue
				}
				for _, f := range out.Failures {
					t.Errorf("%s: %s", out.Key(), f)
				}
				outs = append(outs, out)
			}
			for _, d := range ComparePolicies(sc, outs) {
				t.Errorf("%s", d)
			}
		})
	}
}

// TestHandwrittenSuite runs the full corpus across both topologies and all
// policies through the suite driver.
func TestHandwrittenSuite(t *testing.T) {
	rep := RunSuite(Scenarios(), SuiteConfig{Seed: 3})
	t.Log(rep.Summary())
	if rep.Failed() {
		t.Fatalf("handwritten suite failed:\n%s", rep.RenderFailures(12))
	}
	if rep.Runs == 0 || rep.Skipped == 0 {
		t.Fatalf("suite ran %d, skipped %d; want both non-zero (wide scenario must skip on 2x8)", rep.Runs, rep.Skipped)
	}
	// The outcome digest pins every run's simulated result: a refactor of
	// the coherence paths must not move it.
	if rep.Digest != 0x732fea23648495cf {
		t.Fatalf("suite digest %016x, want 732fea23648495cf", rep.Digest)
	}
}

// TestSuiteDeterminism runs the suite twice and demands byte-identical
// outcome digests — the litmus engine must be fully deterministic.
func TestSuiteDeterminism(t *testing.T) {
	cfg := SuiteConfig{Seed: 11, Topos: []string{"2x8"}}
	a := RunSuite(Scenarios(), cfg)
	b := RunSuite(Scenarios(), cfg)
	if a.Digest != b.Digest {
		t.Fatalf("suite digest not reproducible: %016x vs %016x", a.Digest, b.Digest)
	}
	if a.Failed() {
		t.Fatalf("suite failed:\n%s", a.RenderFailures(12))
	}
}

// TestChaosTier runs the corpus under positive chaos profiles: outcomes
// must stay correct when ticks drop, reclaim stalls, or IPIs jitter.
func TestChaosTier(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos tier is slow")
	}
	rep := RunSuite(Scenarios(), SuiteConfig{
		Policies: []string{"latr"},
		Topos:    []string{"2x8"},
		Chaos:    []string{"tick-drop", "reclaim-stall", "jitter"},
		Seed:     5,
	})
	t.Log(rep.Summary())
	if rep.Failed() {
		t.Fatalf("chaos tier failed:\n%s", rep.RenderFailures(12))
	}
}

// TestSwapScenariosExerciseRemotePaging proves the swap directive does
// what it claims: every handwritten swap scenario must trigger evictions
// under both the eager and the lazy policy, the refaulting ones must swap
// pages back in over the remote backend, and none may trip the safety
// oracle.
func TestSwapScenariosExerciseRemotePaging(t *testing.T) {
	refaulting := map[string]bool{
		"swap-evict-refault":     true,
		"swap-concurrent-swapin": true,
	}
	ran := 0
	for _, sc := range Scenarios() {
		if !sc.Swap {
			continue
		}
		ran++
		for _, pol := range []string{"linux", "latr"} {
			out := RunScenario(sc, RunConfig{Policy: pol, Topo: "2x8", Seed: 13})
			for _, f := range out.Failures {
				t.Errorf("%s: %s", out.Key(), f)
			}
			if out.SwapOuts == 0 {
				t.Errorf("%s: no evictions — the scenario is not creating pressure", out.Key())
			}
			if refaulting[sc.Name] && out.SwapIns == 0 {
				t.Errorf("%s: no swap-ins — the re-touch never refaulted", out.Key())
			}
		}
	}
	if ran < 4 {
		t.Fatalf("only %d swap scenarios in the corpus, want >= 4", ran)
	}
}

// TestSwapRejectsFork pins the Validate rule: swap scenarios cannot fork.
func TestSwapRejectsFork(t *testing.T) {
	_, err := Parse(`litmus swap-fork
swap
thread 0
  mmap A 4 pop
  fork C
thread 1 @ C
  read A 0 4
`)
	if err == nil {
		t.Fatal("fork inside a swap scenario must be rejected")
	}
}

// TestRunUnknowns covers config error paths.
func TestRunUnknowns(t *testing.T) {
	sc := ScenarioByName("basic-mmap-touch")
	if sc == nil {
		t.Fatal("basic-mmap-touch missing")
	}
	if out := RunScenario(sc, RunConfig{Policy: "nope", Topo: "2x8"}); len(out.Failures) == 0 {
		t.Error("unknown policy not reported")
	}
	if out := RunScenario(sc, RunConfig{Policy: "linux", Topo: "9x9"}); len(out.Failures) == 0 {
		t.Error("unknown topology not reported")
	}
	if out := RunScenario(sc, RunConfig{Policy: "linux", Topo: "2x8", Chaos: "nope"}); len(out.Failures) == 0 {
		t.Error("unknown chaos profile not reported")
	}
	if ScenarioByName("no-such-scenario") != nil {
		t.Error("ScenarioByName invented a scenario")
	}
}

// BenchmarkRunScenario runs one litmus scenario end to end, from building
// its machine to its oracles: basic-mmap-touch under latr on 2x8.
func BenchmarkRunScenario(b *testing.B) {
	sc := ScenarioByName("basic-mmap-touch")
	cfg := RunConfig{Policy: "latr", Topo: "2x8", Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out := RunScenario(sc, cfg); len(out.Failures) > 0 {
			b.Fatal(out.Failures)
		}
	}
}
