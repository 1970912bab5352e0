package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"

	"latr/internal/litmus"
	"latr/internal/sim"
	"latr/internal/workload"
)

// smallPlan trims a workload's plan so a test runs it in well under a
// second: two machines (canneal with a tenth of its ops) or five scenarios.
func smallPlan(t *testing.T, name string, seed uint64) *plan {
	t.Helper()
	p, err := makePlan(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.machines) > 2 {
		p.machines = p.machines[:2]
	}
	for i := range p.machines {
		if pr := p.machines[i].parsec; pr != nil {
			pr.TotalOps /= 10
		}
	}
	if len(p.scenarios) > 0 {
		p.scenarios = append(p.scenarios[:3:3], p.scenarios[len(p.scenarios)-2:]...)
	}
	return p
}

func runOnce(p *plan) ([]opResult, counts) {
	var c counts
	return setup(p, &tracer{}, nil).run(&tracer{}, &c, nil), c
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q has a bad name or unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricJSON struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricJSON `json:"end_to_end"`
		PerLayer  []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricJSON, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the benchmark prints %d", len(got), kind, len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, endToEnd)
	check("per-layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}
}

func TestSameSeedSameOutputs(t *testing.T) {
	for _, name := range workloadNames {
		a, ca := runOnce(smallPlan(t, name, 7))
		b, cb := runOnce(smallPlan(t, name, 7))
		if !reflect.DeepEqual(a, b) || ca.events != cb.events || ca.litmusRuns != cb.litmusRuns || ca.tlbHits != cb.tlbHits {
			t.Errorf("%s: two runs of seed 7 differ:\n%v\n%v", name, a, b)
		}
		for _, op := range a {
			if op.failed > 0 || op.digest == "" {
				t.Errorf("%s: %s failed (%s) or has no digest", name, op.id, op.why)
			}
		}
	}
}

func TestSeedChangesOnlyGeneratedInputs(t *testing.T) {
	within := func(got, base sim.Time) bool {
		return float64(got) >= float64(base)*(1-jitter)-1 && float64(got) <= float64(base)*(1+jitter)+1
	}
	for _, name := range []string{apacheSweep, cannealTouch} {
		p1, _ := makePlan(name, 1)
		p2, _ := makePlan(name, 2)
		changed := false
		for i, m := range p2.machines {
			base := p1.machines[i]
			if m.apache != nil {
				b := *base.apache
				if !within(m.apache.ParseWork, b.ParseWork) || !within(m.apache.ServeWork, b.ServeWork) || !within(m.apache.NetWork, b.NetWork) {
					t.Errorf("%s: %s draws outside ±%v: %+v", name, m.id, jitter, *m.apache)
				}
				changed = changed || m.apache.ParseWork != b.ParseWork || m.apache.ServeWork != b.ServeWork || m.apache.NetWork != b.NetWork
				m.apache.ParseWork, m.apache.ServeWork, m.apache.NetWork = b.ParseWork, b.ServeWork, b.NetWork
				if !reflect.DeepEqual(*m.apache, b) {
					t.Errorf("%s: seed changed more than CPU segments of %s", name, m.id)
				}
			} else {
				b := *base.parsec
				if !within(m.parsec.OpWork, b.OpWork) {
					t.Errorf("%s: %s OpWork %v outside ±%v of %v", name, m.id, m.parsec.OpWork, jitter, b.OpWork)
				}
				changed = changed || m.parsec.OpWork != b.OpWork
				m.parsec.OpWork = b.OpWork
				if !reflect.DeepEqual(*m.parsec, b) {
					t.Errorf("%s: seed changed more than OpWork of %s", name, m.id)
				}
			}
		}
		if !changed {
			t.Errorf("%s: seed 2 draws the same work as seed 1", name)
		}
	}

	p1, _ := makePlan(litmusCorpus, 1)
	p2, _ := makePlan(litmusCorpus, 2)
	hand := len(litmus.Scenarios())
	for i := range p1.scenarios {
		same := p1.scenarios[i].String() == p2.scenarios[i].String()
		if i < hand && !same {
			t.Errorf("handwritten scenario %s differs between seeds", p1.scenarios[i].Name)
		}
		if i >= hand && same {
			t.Errorf("generated scenario %d is the same for seeds 1 and 2", i)
		}
	}
	if len(p1.scenarios) != hand+litmusGenerated || len(p2.scenarios) != len(p1.scenarios) {
		t.Errorf("litmus plan has %d and %d scenarios, want %d", len(p1.scenarios), len(p2.scenarios), hand+litmusGenerated)
	}
}

func TestSeedOneIsPaperConfig(t *testing.T) {
	p, _ := makePlan(apacheSweep, 1)
	i := 0
	for _, cores := range apacheCores {
		for _, pol := range apachePolicies {
			m := p.machines[i]
			if m.policy != pol || !reflect.DeepEqual(*m.apache, workload.DefaultApacheConfig(coreIDs(cores))) {
				t.Errorf("apache machine %d is %s %+v, want %s DefaultApacheConfig(%d cores)", i, m.policy, *m.apache, pol, cores)
			}
			i++
		}
	}
	stock, _ := workload.ParsecProfileByName("canneal")
	p, _ = makePlan(cannealTouch, 1)
	for _, m := range p.machines {
		if !reflect.DeepEqual(*m.parsec, stock) || m.cores != 16 {
			t.Errorf("canneal machine %s runs %+v on %d cores, want the stock profile on 16", m.id, *m.parsec, m.cores)
		}
	}
}

func TestCorruptedDigestFailsOperations(t *testing.T) {
	for _, name := range workloadNames {
		p := smallPlan(t, name, 1)
		ops, _ := runOnce(p)
		want := make([]string, len(ops))
		for i, op := range ops {
			want[i] = op.digest
		}
		want[1] = "0123456789abcdef:0"
		rep := &report{plan: p, rounds: []roundResult{{ops: ops}}}
		rep.check(map[string][]string{digestKey(name, 1): want})
		total := 0
		for _, op := range ops {
			total += op.runs
		}
		if rep.failed != ops[1].runs || rep.attempted != total || ops[1].failed == 0 {
			t.Errorf("%s: corrupted digest of op 1 gave %d failed of %d attempted, want %d of %d", name, rep.failed, rep.attempted, ops[1].runs, total)
		}
	}
}

func TestMissingDigestsAreReportedNotPassed(t *testing.T) {
	p := smallPlan(t, apacheSweep, 1)
	ops, _ := runOnce(p)
	rep := &report{plan: p, rounds: []roundResult{{ops: ops}, {ops: append([]opResult(nil), ops...)}}}
	rep.rounds[1].ops[0].digest = "changed"
	rep.check(map[string][]string{})
	if rep.failed != 1 || len(rep.notes) == 0 || !strings.Contains(rep.notes[0], "skipped") {
		t.Errorf("without committed digests: failed=%d notes=%q; want the skip noted and the round-to-round mismatch failed", rep.failed, rep.notes)
	}
}

func TestSetupPanicIsAFailedOperation(t *testing.T) {
	p := smallPlan(t, apacheSweep, 1)
	p.machines[0].apache.Processes = 0 // workload.NewApache panics on this
	ops, _ := runOnce(p)
	if ops[0].failed != 1 || !strings.Contains(ops[0].why, "panic") || ops[1].failed != 0 {
		t.Errorf("ops = %+v; want the first machine failed by its set-up panic and the second passed", ops)
	}
}

func TestDigestsCoverSeedOne(t *testing.T) {
	for _, name := range workloadNames {
		p, _ := makePlan(name, 1)
		want := len(p.machines) + len(p.scenarios)
		if got := committedDigests[digestKey(name, 1)]; len(got) != want {
			t.Errorf("digests.txt has %d digests for %s seed 1, want %d", len(got), name, want)
		}
	}
}

// TestLitmusDigestMirrorsSuite checks that the benchmark runs litmus cells
// with the suite's per-scenario seeds and folds outcomes the way the suite
// digest does.
func TestLitmusDigestMirrorsSuite(t *testing.T) {
	scs := litmus.Scenarios()[:3]
	want := litmus.RunSuite(scs, litmus.SuiteConfig{Seed: 1, Workers: 1}).Digest
	h := fnv.New64a()
	for si, sc := range scs {
		for _, tp := range litmusTopos {
			for _, pol := range litmus.DefaultPolicies {
				o := litmus.RunScenario(sc, litmus.RunConfig{Policy: pol, Topo: tp, Seed: litmusRunSeed(si)})
				if !o.Skipped {
					h.Write([]byte(outcomeDigest(o)))
					h.Write([]byte{0})
				}
			}
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("benchmark litmus digest %016x, suite digest %016x", got, want)
	}
}

func TestAttributeCannedStacks(t *testing.T) {
	cases := []struct {
		stack []string
		layer string
		alloc bool
	}{
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "latr/internal/kernel.(*Core).busy", "latr/internal/sim.(*Engine).Step"}, "kernel", true},
		{[]string{"latr/internal/sim.eventHeap.Less", "container/heap.down", "container/heap.Pop", "latr/internal/sim.(*Engine).Step"}, "sim", false},
		{[]string{"container/heap.up", "container/heap.Push", "latr/internal/sim.(*Engine).At", "latr/internal/kernel.(*Core).busy"}, "sim", false},
		{[]string{"runtime.mapaccess2_faststr", "latr/internal/metrics.(*Registry).Inc", "latr/internal/kernel.(*Core).doMunmap"}, "metrics", false},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "gc", false},
		{[]string{"runtime.memmove", "runtime.growslice", "main.(*tracer).begin", "main.(*machine).run"}, "bench", false},
		{[]string{"latr/internal/fan.Run[...].func1", "main.main"}, "fan", false},
		{[]string{"main.refPiece", "main.(*drift).sample", "main.(*machine).run"}, "", false},
	}
	for _, c := range cases {
		layer, alloc := attribute(c.stack)
		if layer != c.layer || alloc != c.alloc {
			t.Errorf("attribute(%v) = %s, %v; want %s, %v", c.stack, layer, alloc, c.layer, c.alloc)
		}
	}
}

func TestProfileDecodesAndAttributes(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	p := smallPlan(t, cannealTouch, 1)
	runOnce(p)
	pprof.StopCPUProfile()
	var s cpuShares
	if err := s.addProfile(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if s.total == 0 {
		t.Skip("no CPU samples collected")
	}
	sum := s.otherShare()
	for _, l := range cpuLayers {
		sum += s.share(l)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("layer shares sum to %v, want 1", sum)
	}
	if s.share("sim")+s.share("kernel")+s.share("tlb") == 0 {
		t.Errorf("no samples attributed to sim, kernel or tlb: %v", s.byLayer)
	}
	if _, err := decodeProfile([]byte{0x12, 0xff}); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func TestReferencePieceIsFixedAndAllocationFree(t *testing.T) {
	if got := refPiece(); got != refPieceSum {
		t.Errorf("refPiece() = %d, want %d: the reference changed", got, refPieceSum)
	}
	if n := testing.AllocsPerRun(2, func() { refSink = refPiece() }); n != 0 {
		t.Errorf("refPiece allocates %v objects per run, want 0", n)
	}
}
