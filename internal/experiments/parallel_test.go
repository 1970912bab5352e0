package experiments

import (
	"fmt"
	"testing"

	"latr/internal/sim"
)

func TestFanPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i * 3
	}
	for _, workers := range []int{-1, 0, 1, 2, 7, 100, 1000} {
		got := fan(workers, items, func(i int, v int) int { return v + i })
		for i, v := range got {
			if v != i*3+i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*3+i)
			}
		}
	}
}

func TestFanEmptyAndSingle(t *testing.T) {
	if got := fan(4, nil, func(int, int) int { return 1 }); len(got) != 0 {
		t.Fatalf("empty fan returned %v", got)
	}
	if got := fan(4, []int{9}, func(_ int, v int) int { return v * 2 }); len(got) != 1 || got[0] != 18 {
		t.Fatalf("single-item fan returned %v", got)
	}
}

func TestMatrixSpecsDeterministicOrder(t *testing.T) {
	m := DefaultMatrix(true)
	a, b := m.Specs(), m.Specs()
	want := len(m.Machines) * len(m.Workloads) * len(m.Policies) * len(m.Seeds)
	if len(a) != want {
		t.Fatalf("Specs() returned %d specs, want %d", len(a), want)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Specs() not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRunOneReportsErrors(t *testing.T) {
	cases := []RunSpec{
		{Policy: "nope", Workload: "micro", Machine: "2x8", Cores: 4, Seed: 1},
		{Policy: "linux", Workload: "nope", Machine: "2x8", Cores: 4, Seed: 1},
		{Policy: "linux", Workload: "micro", Machine: "weird", Cores: 4, Seed: 1},
		{Policy: "linux", Workload: "micro", Machine: "2x8", Cores: 999, Seed: 1},
		{Policy: "linux", Workload: "parsec:nope", Machine: "2x8", Cores: 4, Seed: 1},
	}
	for _, s := range cases {
		if r := RunOne(s, Options{Quick: true}); r.Err == "" {
			t.Errorf("RunOne(%+v) reported no error", s)
		}
	}
}

// TestMatrixParallelDeterminism is the tentpole regression test: the full
// quick matrix must produce byte-identical per-run fingerprint lines under
// a sequential execution and under 3 different parallel worker counts.
func TestMatrixParallelDeterminism(t *testing.T) {
	m := DefaultMatrix(true)
	m.Duration /= 4 // keep the test snappy; shape is what matters
	specs := m.Specs()
	o := Options{Quick: true}

	base := RunMatrix(specs, 1, o)
	if len(base) != len(specs) {
		t.Fatalf("sequential run returned %d results, want %d", len(base), len(specs))
	}
	for _, r := range base {
		if r.Err != "" {
			t.Fatalf("sequential run %s failed: %s", r.Spec.Name(), r.Err)
		}
		if r.Dispatched == 0 {
			t.Fatalf("sequential run %s dispatched no events", r.Spec.Name())
		}
	}
	for _, workers := range []int{2, 4, 8} {
		got := RunMatrix(specs, workers, o)
		for i := range base {
			want, have := base[i].Fingerprint(), got[i].Fingerprint()
			if want != have {
				t.Errorf("workers=%d: run %d diverged from sequential:\n  seq: %s\n  par: %s",
					workers, i, want, have)
			}
		}
	}
}

// TestPinnedRunFingerprints pins the engine, metric and trace
// fingerprints of every policy on a small AutoNUMA matrix. Refactors of
// the coherence paths must leave every simulated byte where it was; a
// line here moves when one does.
func TestPinnedRunFingerprints(t *testing.T) {
	m := Matrix{
		Policies:  PolicyNames(),
		Workloads: []string{"micro", "apache"},
		Machines:  []string{"2x8"},
		Cores:     12,
		Pages:     1,
		Iters:     200,
		Seeds:     []uint64{1},
		Duration:  50 * sim.Millisecond,
		AutoNUMA:  true,
	}
	want := []string{
		"2x8/micro/linux/c12/seed1: sim=20000000 dispatched=16563 engine=2cb0502769838dca metrics=01e26e385cfe34a5 trace=d4e4395e0a304990 done=true",
		"2x8/micro/latr/c12/seed1: sim=20000000 dispatched=18615 engine=f9a8346d1a32b672 metrics=6ae0be21e584faba trace=50ea6836236e3dd8 done=true",
		"2x8/micro/abis/c12/seed1: sim=20000000 dispatched=16763 engine=8b38a4ce7a13ded2 metrics=b76745f5791f5df2 trace=3e4283c85f7fd339 done=true",
		"2x8/micro/barrelfish/c12/seed1: sim=20000000 dispatched=16562 engine=5696fb78a8c47c03 metrics=c7b5005117e95bea trace=54a088c1e8a51cb4 done=true",
		"2x8/micro/instant/c12/seed1: sim=20000000 dispatched=11763 engine=241374c2863aa931 metrics=86bc3d73f72304c0 trace=5264ed591bfd72c9 done=true",
		"2x8/apache/linux/c12/seed1: sim=50000000 dispatched=144414 engine=8ac1f4f68798db9e metrics=89005d8d30370e2a trace=05d9080f6e461399 done=false",
		"2x8/apache/latr/c12/seed1: sim=50000000 dispatched=163899 engine=9b9cf6179f89c9a1 metrics=0b6c025917820d99 trace=05853884c43a42dd done=false",
		"2x8/apache/abis/c12/seed1: sim=50000000 dispatched=139268 engine=2e9c97d7fdee9f98 metrics=0253699550b82c47 trace=2e26f4a26515c06d done=false",
		"2x8/apache/barrelfish/c12/seed1: sim=50000000 dispatched=183527 engine=0ae3ce7223c060b2 metrics=2ac066a9ae0fd365 trace=a3230dcaa14ba504 done=false",
		"2x8/apache/instant/c12/seed1: sim=50000000 dispatched=137818 engine=d3ab2bb9df5f0930 metrics=5046ed0ebd756aa8 trace=fccec89bbfe48aaa done=false",
	}
	got := RunMatrix(m.Specs(), 2, Options{})
	if len(got) != len(want) {
		t.Fatalf("matrix ran %d specs, want %d", len(got), len(want))
	}
	for i, r := range got {
		if fp := r.Fingerprint(); fp != want[i] {
			t.Errorf("run %d moved:\n  got:  %s\n  want: %s", i, fp, want[i])
		}
	}
}

// TestFigureParallelMatchesSequential proves the refactored figure runners
// render byte-identical tables regardless of the worker count.
func TestFigureParallelMatchesSequential(t *testing.T) {
	seqOpts := Options{Quick: true, Seed: 1}
	parOpts := Options{Quick: true, Seed: 1, Workers: 4}
	seq := Fig6(seqOpts).String()
	par := Fig6(parOpts).String()
	if seq != par {
		t.Fatalf("Fig6 diverged between 1 and 4 workers:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

func TestRunOneMicroCompletes(t *testing.T) {
	r := RunOne(RunSpec{
		Policy: "latr", Workload: "micro", Machine: "2x8",
		Cores: 4, Seed: 7, Iters: 20, Pages: 1, Duration: 0,
	}, Options{Quick: true})
	if r.Err != "" {
		t.Fatalf("RunOne failed: %s", r.Err)
	}
	if !r.Completed {
		t.Fatal("micro workload did not complete within the default duration")
	}
	if r.EngineFP == 0 || r.MetricsFP == 0 {
		t.Fatalf("missing fingerprints: %s", r.Fingerprint())
	}
}

func TestMachineByName(t *testing.T) {
	for _, name := range []string{"2x8", "8x15", "small", "large", "4x4"} {
		if _, err := MachineByName(name); err != nil {
			t.Errorf("MachineByName(%q) = %v", name, err)
		}
	}
	for _, name := range []string{"", "x", "0x4", "4x0", "axb"} {
		if _, err := MachineByName(name); err == nil {
			t.Errorf("MachineByName(%q) succeeded, want error", name)
		}
	}
}

func ExampleRunSpec_Name() {
	fmt.Println(RunSpec{Policy: "latr", Workload: "apache", Machine: "2x8", Cores: 8, Seed: 3}.Name())
	// Output: 2x8/apache/latr/c8/seed3
}
