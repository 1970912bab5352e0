package experiments

import (
	"fmt"
	"testing"

	"latr/internal/fan"
	"latr/internal/sim"
)

// The experiment runners fan their cells out through fan.Run and print
// the results in the order they went in; these two tests pin that
// contract at the worker counts the runners pass.
func TestFanPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i * 3
	}
	for _, workers := range []int{-1, 0, 1, 2, 7, 100, 1000} {
		got := fan.Run(workers, items, func(i int, v int) int { return v + i })
		for i, v := range got {
			if v != i*3+i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*3+i)
			}
		}
	}
}

func TestFanEmptyAndSingle(t *testing.T) {
	if got := fan.Run(4, nil, func(int, int) int { return 1 }); len(got) != 0 {
		t.Fatalf("empty fan returned %v", got)
	}
	if got := fan.Run(4, []int{9}, func(_ int, v int) int { return v * 2 }); len(got) != 1 || got[0] != 18 {
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
// fingerprints of two small AutoNUMA matrices. The first runs every
// policy on micro and apache: the bare-metal ones and the two-level
// guest-latr, host-latr and hatric, whose NUMA unmaps nothing else runs.
// The second runs linux and latr on the Fig 11 and Fig 12 applications
// and three PARSEC/SPLASH profiles, whose shapes are package constants
// that no baseline covers. Refactors of the coherence paths and the
// workloads must leave every simulated byte where it was; a line here
// moves when one does.
func TestPinnedRunFingerprints(t *testing.T) {
	for _, tc := range []struct {
		m    Matrix
		want []string
	}{
		{
			m: Matrix{
				Policies:  append(PolicyNames(), "guest-latr", "host-latr", "hatric"),
				Workloads: []string{"micro", "apache"},
				Machines:  []string{"2x8"},
				Cores:     12,
				Pages:     1,
				Iters:     200,
				Seeds:     []uint64{1},
				Duration:  50 * sim.Millisecond,
				AutoNUMA:  true,
			},
			want: []string{
				"2x8/micro/linux/c12/seed1: sim=20000000 dispatched=16573 engine=473140ba0e7e29a0 metrics=944b1475b1bae870 trace=d4e4395e0a304990 done=true",
				"2x8/micro/latr/c12/seed1: sim=20000000 dispatched=18615 engine=f9a8346d1a32b672 metrics=6ae0be21e584faba trace=50ea6836236e3dd8 done=true",
				"2x8/micro/abis/c12/seed1: sim=20000000 dispatched=16764 engine=090e6643263477dc metrics=266c75314a594f5d trace=3e4283c85f7fd339 done=true",
				"2x8/micro/barrelfish/c12/seed1: sim=20000000 dispatched=16562 engine=5696fb78a8c47c03 metrics=c7b5005117e95bea trace=54a088c1e8a51cb4 done=true",
				"2x8/micro/instant/c12/seed1: sim=20000000 dispatched=11763 engine=241374c2863aa931 metrics=738c27aaedbd281e trace=c3d7bdfb4535d055 done=true",
				"2x8/micro/guest-latr/c12/seed1: sim=20000000 dispatched=18615 engine=f9a8346d1a32b672 metrics=7747ad7ce25a5cde trace=50ea6836236e3dd8 done=true",
				"2x8/micro/host-latr/c12/seed1: sim=20000000 dispatched=16573 engine=473140ba0e7e29a0 metrics=3872891933e7e01e trace=d4e4395e0a304990 done=true",
				"2x8/micro/hatric/c12/seed1: sim=20000000 dispatched=12162 engine=70329e9d7380acaf metrics=8118989343527831 trace=67b7870d63028122 done=true",
				"2x8/apache/linux/c12/seed1: sim=50000000 dispatched=145153 engine=1fac1adc22af8d83 metrics=b1dc4aa86ec055fd trace=9bab00f8bf4d3d62 done=false",
				"2x8/apache/latr/c12/seed1: sim=50000000 dispatched=163776 engine=60d030c2d5a46980 metrics=86cdaa6972520a29 trace=05853884c43a42dd done=false",
				"2x8/apache/abis/c12/seed1: sim=50000000 dispatched=139120 engine=f7ac5cbe558e25cb metrics=06cee392ebc33cc1 trace=9898d49dc0f73c0f done=false",
				"2x8/apache/barrelfish/c12/seed1: sim=50000000 dispatched=184536 engine=dcdfa2355404c9e1 metrics=d4872a272b807d0e trace=a3230dcaa14ba504 done=false",
				"2x8/apache/instant/c12/seed1: sim=50000000 dispatched=137123 engine=bd9699f61a83efcf metrics=8dc006b98d0ccecb trace=d81a430cd0f3f5a3 done=false",
				"2x8/apache/guest-latr/c12/seed1: sim=50000000 dispatched=163776 engine=60d030c2d5a46980 metrics=e4ae4d99ee5dc8de trace=05853884c43a42dd done=false",
				"2x8/apache/host-latr/c12/seed1: sim=50000000 dispatched=145153 engine=1fac1adc22af8d83 metrics=61edacd554605227 trace=9bab00f8bf4d3d62 done=false",
				"2x8/apache/hatric/c12/seed1: sim=50000000 dispatched=150298 engine=8bfafb5032d4cc5f metrics=00224cb2ced39831 trace=ddc00374d368a28c done=false",
			},
		},
		{
			m: Matrix{
				Policies:  []string{"linux", "latr"},
				Workloads: []string{"nginx", "graph500", "pbzip2", "metis", "ocean", "fluidanimate", "parsec:dedup"},
				Machines:  []string{"2x8"},
				Cores:     12,
				Seeds:     []uint64{1},
				Duration:  40 * sim.Millisecond,
				AutoNUMA:  true,
			},
			want: []string{
				"2x8/nginx/linux/c12/seed1: sim=40000000 dispatched=11365 engine=bf179c27598495ca metrics=fa9b469f370b9188 trace=cbf29ce484222325 done=false",
				"2x8/nginx/latr/c12/seed1: sim=40000000 dispatched=11455 engine=57f9ea238382e103 metrics=4e68e8c88fd6399b trace=cbf29ce484222325 done=false",
				"2x8/graph500/linux/c12/seed1: sim=10000000 dispatched=1843 engine=542fc28abe1660a6 metrics=4897770053b26e0f trace=d2704c6dcd16de02 done=true",
				"2x8/graph500/latr/c12/seed1: sim=10000000 dispatched=2041 engine=aa80cae8b80e126a metrics=6bddc3bdc59a6bd1 trace=28f1a90bc8b2c68b done=true",
				"2x8/pbzip2/linux/c12/seed1: sim=40000000 dispatched=11582 engine=4f5d49272c75b460 metrics=2a13fe1e20d5bd22 trace=b75ee1965ea5e891 done=false",
				"2x8/pbzip2/latr/c12/seed1: sim=40000000 dispatched=6019 engine=dd43a9f30e987060 metrics=30166440a2d287d6 trace=e106323e9854755a done=false",
				"2x8/metis/linux/c12/seed1: sim=20000000 dispatched=8814 engine=cc2b277b9b6e8315 metrics=47a92bf2d8da6410 trace=211e26fb63a053de done=true",
				"2x8/metis/latr/c12/seed1: sim=20000000 dispatched=5400 engine=3c670b38b70df987 metrics=6bdb9e94aa5479a6 trace=6f5d16452e955bdb done=true",
				"2x8/ocean/linux/c12/seed1: sim=40000000 dispatched=23593 engine=88c23051e75b3fc0 metrics=b80bc67842503b93 trace=f4cd54a4eb3290a0 done=false",
				"2x8/ocean/latr/c12/seed1: sim=40000000 dispatched=21649 engine=d025f9d283506b1d metrics=1fd3b58a97d0753c trace=2dba41c466e4a5b5 done=false",
				"2x8/fluidanimate/linux/c12/seed1: sim=40000000 dispatched=27222 engine=0664422c137859d7 metrics=e211723066ac1f9b trace=b51486e0ee3f70b9 done=false",
				"2x8/fluidanimate/latr/c12/seed1: sim=40000000 dispatched=22995 engine=c234b89964be5e16 metrics=4e6c2cf77f9ed751 trace=fe9d638c6bc078bb done=false",
				"2x8/parsec:dedup/linux/c12/seed1: sim=40000000 dispatched=62997 engine=b9805b19dbda7942 metrics=db82c11d337cdaa3 trace=25a02503eec47d29 done=false",
				"2x8/parsec:dedup/latr/c12/seed1: sim=40000000 dispatched=54191 engine=a5ea8d421f7a7211 metrics=7b75c1bef29b57a5 trace=da3eaeebf0489e9f done=false",
			},
		},
		{
			// nginx recycles its log buffer every 2,000 requests, about
			// 90 ms into a run, so only a longer run covers that path.
			m: Matrix{
				Policies:  []string{"linux", "latr"},
				Workloads: []string{"nginx"},
				Machines:  []string{"2x8"},
				Cores:     12,
				Seeds:     []uint64{1},
				Duration:  100 * sim.Millisecond,
				AutoNUMA:  true,
			},
			want: []string{
				"2x8/nginx/linux/c12/seed1: sim=100000000 dispatched=28584 engine=da7267a965c89fa2 metrics=2ccfcde3a9f9c9c9 trace=ae58ff7402f66ec0 done=false",
				"2x8/nginx/latr/c12/seed1: sim=100000000 dispatched=28654 engine=5441cad325290a38 metrics=6afebee92ac1e0d5 trace=a82b16a85818d6dd done=false",
			},
		},
	} {
		got := RunMatrix(tc.m.Specs(), 2, Options{})
		if len(got) != len(tc.want) {
			t.Fatalf("matrix %v ran %d specs, want %d", tc.m.Workloads, len(got), len(tc.want))
		}
		for i, r := range got {
			if fp := r.Fingerprint(); fp != tc.want[i] {
				t.Errorf("run %d moved:\n  got:  %s\n  want: %s", i, fp, tc.want[i])
			}
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

func ExampleRunSpec_Name() {
	fmt.Println(RunSpec{Policy: "latr", Workload: "apache", Machine: "2x8", Cores: 8, Seed: 3}.Name())
	// Output: 2x8/apache/latr/c8/seed3
}
