// Command latr-sim runs a single workload scenario on a chosen machine and
// coherence policy and dumps the metrics — the exploratory companion to
// latr-bench.
//
// Usage:
//
//	latr-sim -policy latr -workload apache -cores 12 -duration 500ms
//	latr-sim -policy linux -workload micro -cores 16 -pages 8
//	latr-sim -machine 8x15 -policy latr -workload micro -cores 120
//	latr-sim -policy latr -workload micro -trace-out run.json   # Perfetto spans
//
// Matrix mode fans a (policy × workload × seed × machine) sweep across a
// worker pool, each run fully isolated, results in deterministic order:
//
//	latr-sim -matrix -parallel 4
//	latr-sim -matrix -policies linux,latr -workloads micro,apache -seeds 1,2,3 -verify-seq
//
// Litmus mode runs the declarative TLB-coherence corpus under every policy
// on both reference topologies and checks each run against the flat
// reference model and the cross-policy comparator:
//
//	latr-sim -litmus
//	latr-sim -litmus -litmus-gen 200 -policies linux,latr
//	latr-sim -litmus -litmus-virt-gen 50
//	latr-sim -litmus -litmus-run reuse-after-shootdown -v
//
// Remote mode runs the §6.2 Infiniswap case study: a memcached-like KV
// server whose arena exceeds local memory, paging over the RDMA backend,
// with per-request tail latency reported at the end:
//
//	latr-sim -remote -policy latr -duration 200ms
//	latr-sim -remote -policy linux -machine 8x15 -remote-frames 2000
//
// Cluster mode runs the fault-tolerant multi-machine fleet: N simulated
// machines behind a routing/retry front-end, swept over
// (policy × router × fault profile), one deterministic digest line per
// cell (byte-identical at any -parallel):
//
//	latr-sim -cluster -duration 50ms
//	latr-sim -cluster -policies latr -cluster-routers affinity -cluster-profiles flaky-fleet
//	latr-sim -cluster -parallel 8 -seed 7
//
// Counterfactual mode re-runs one recorded seed of a policy auto-tuner cell
// with a single knob perturbed and diffs the resulting coherence spans
// (-quick shrinks the runs):
//
//	latr-sim -tune-cf QueueDepth=4 -seed 7
//	latr-sim -tune-cf ReclaimDelay=8ms -tune-cell churn@8x15
//
// The experiment tables — the paper's tables and figures, its ablations
// and the extensions — are run by latr-bench -exp <id>; latr-bench -list
// prints the ids.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"latr"
	"latr/internal/remote"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

// run is the testable body of the command. Audit violations, cluster
// violations and malformed -tune-cf/-tune-cell values exit 2; every other
// error exits 1.
func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("latr-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		machine   = fs.String("machine", "2x8", "machine: 2x8, 8x15, or NxM sockets x cores")
		policy    = fs.String("policy", "latr", "coherence policy: "+strings.Join(latr.PolicyNames(), ", "))
		wl        = fs.String("workload", "apache", "workload: "+strings.Join(latr.WorkloadNames(), ", "))
		cores     = fs.Int("cores", 12, "worker cores")
		pages     = fs.Int("pages", 1, "pages per op (micro)")
		iters     = fs.Int("iters", 200, "iterations (micro)")
		duration  = fs.Duration("duration", 500*time.Millisecond, "simulated duration for server workloads")
		numaOn    = fs.Bool("numa", false, "enable AutoNUMA balancing")
		seed      = fs.Uint64("seed", 1, "simulation seed")
		check     = fs.Bool("check", false, "enable the TLB reuse-invariant checker")
		dump      = fs.Bool("dump", true, "dump all metrics at the end")
		audit     = fs.Bool("audit", false, "enable the coherence auditor (structured violations instead of panics)")
		traceOut  = fs.String("trace-out", "", "write the run's coherence spans as Chrome trace-event JSON to this file (load in ui.perfetto.dev)")
		chaosProf = fs.String("chaos-profile", "", "inject faults from this chaos profile (implies -audit); one of: "+strings.Join(latr.ChaosProfiles(), ", "))
		chaosSeed = fs.Uint64("chaos-seed", 0, "seed for the chaos fault schedule (default: -seed)")

		matrix    = fs.Bool("matrix", false, "run a (policy x workload x seed x machine) matrix instead of a single scenario")
		parallel  = fs.Int("parallel", runtime.NumCPU(), "matrix worker pool size (each run is fully isolated)")
		policies  = fs.String("policies", "", "matrix: comma-separated policies (default: all)")
		workloads = fs.String("workloads", "micro,apache,nginx,parsec:dedup", "matrix: comma-separated workloads")
		machines  = fs.String("machines", "2x8", "matrix: comma-separated machine shapes")
		seeds     = fs.String("seeds", "1,2", "matrix: comma-separated seeds")
		verifySeq = fs.Bool("verify-seq", false, "matrix: re-run sequentially and fail unless all fingerprints are byte-identical")

		remoteOn = fs.Bool("remote", false, "run the remote-memory paging case study (memcached over the RDMA backend) instead of a plain workload")
		remoteFr = fs.Int64("remote-frames", 0, "remote: cap the remote node's frame pool (0 = unbounded)")

		clusterOn   = fs.Bool("cluster", false, "run the fault-tolerant multi-machine cluster sweep (policy x router x fault profile) instead of a single-machine workload")
		clusterN    = fs.Int("cluster-nodes", 0, "cluster: fleet size (0 = default 3)")
		clusterRt   = fs.String("cluster-routers", "", "cluster: comma-separated routers (default: all of "+strings.Join(latr.ClusterRouters(), ", ")+")")
		clusterProf = fs.String("cluster-profiles", "none,node-crash", "cluster: comma-separated fault profiles; one of none, "+strings.Join(latr.ClusterFaultProfiles(), ", "))
		clusterMach = fs.String("cluster-machine", "", "cluster: per-node machine shape: 2x8, 8x15, or NxM sockets x cores (default: 2x4)")
		clusterHdg  = fs.Duration("cluster-hedge", time.Millisecond, "cluster: hedge delay for a duplicate attempt (0 disables hedging)")

		tuneCf   = fs.String("tune-cf", "", "render a counterfactual span diff for one knob perturbation of a recorded seed, as Knob=value (durations accept Go syntax, e.g. ReclaimDelay=8ms)")
		tuneCell = fs.String("tune-cell", "churn@2x8", "tune-cf: counterfactual cell, workload@machine (workloads churn, memcached; machines 2x8, 8x15)")
		quick    = fs.Bool("quick", false, "tune-cf: smaller runs, same shapes")

		litmusOn   = fs.Bool("litmus", false, "run the litmus corpus through the differential oracle instead of a workload")
		litmusGen  = fs.Int("litmus-gen", 0, "litmus: also run this many generated scenarios")
		litmusVGen = fs.Int("litmus-virt-gen", 0, "litmus: also run this many generated two-level (guest/host) scenarios")
		litmusSeed = fs.Uint64("litmus-seed", 1000, "litmus: first seed for generated scenarios")
		litmusRun  = fs.String("litmus-run", "", "litmus: run only this named handwritten scenario")
		litmusCh   = fs.String("litmus-chaos", "", "litmus: comma-separated chaos profiles to cross in (safety checks only)")
		verbose    = fs.Bool("v", false, "litmus: print one line per run")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Only the single run injects faults; every other mode would drop the
	// chaos flags without a word.
	chaosFlag := ""
	fs.Visit(func(f *flag.Flag) {
		if chaosFlag == "" && (f.Name == "chaos-profile" || f.Name == "chaos-seed") {
			chaosFlag = "-" + f.Name
		}
	})
	for _, m := range []struct {
		on   bool
		name string
	}{{*tuneCf != "", "-tune-cf"}, {*litmusOn, "-litmus (use -litmus-chaos)"}, {*clusterOn, "-cluster"}, {*remoteOn, "-remote"}, {*matrix, "-matrix"}} {
		if m.on && chaosFlag != "" {
			fmt.Fprintf(stderr, "latr-sim: %s is not supported with %s\n", chaosFlag, m.name)
			return 1
		}
	}

	if *tuneCf != "" {
		return runCounterfactual(stdout, stderr, *tuneCf, *tuneCell, *quick, *seed)
	}

	if *litmusOn {
		// -machines defaults to "2x8" for matrix mode; litmus mode crosses
		// both reference topologies unless the flag was given explicitly.
		litmusMachines := ""
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "machines" {
				litmusMachines = *machines
			}
		})
		return runLitmus(stdout, stderr, litmusFlags{
			gen:      *litmusGen,
			virtGen:  *litmusVGen,
			genSeed:  *litmusSeed,
			only:     *litmusRun,
			policies: *policies,
			machines: litmusMachines,
			chaos:    *litmusCh,
			seed:     *seed,
			parallel: *parallel,
			verbose:  *verbose,
		})
	}

	if *clusterOn {
		if *check {
			fmt.Fprintln(stderr, "latr-sim: -check does nothing with -cluster: every node audits")
			return 1
		}
		return runCluster(stdout, stderr, clusterFlags{
			policies: *policies,
			routers:  *clusterRt,
			profiles: *clusterProf,
			nodes:    *clusterN,
			machine:  *clusterMach,
			duration: latr.Time(duration.Nanoseconds()),
			hedge:    latr.Time(clusterHdg.Nanoseconds()),
			seed:     *seed,
			parallel: *parallel,
		})
	}

	if *remoteOn {
		return runRemote(stdout, stderr, remoteFlags{
			machine:      *machine,
			policy:       *policy,
			cores:        *cores,
			duration:     latr.Time(duration.Nanoseconds()),
			seed:         *seed,
			check:        *check,
			audit:        *audit,
			dump:         *dump,
			remoteFrames: *remoteFr,
		})
	}

	if *matrix {
		if *audit {
			fmt.Fprintln(stderr, "latr-sim: -audit is not supported with -matrix (use -check)")
			return 1
		}
		return runMatrix(stdout, stderr, matrixFlags{
			parallel:  *parallel,
			policies:  *policies,
			workloads: *workloads,
			machines:  *machines,
			seeds:     *seeds,
			cores:     *cores,
			pages:     *pages,
			iters:     *iters,
			duration:  latr.Time(duration.Nanoseconds()),
			numa:      *numaOn,
			check:     *check,
			verifySeq: *verifySeq,
		})
	}

	spec, err := machineFor(*machine, *policy, *cores)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	w, err := latr.WorkloadByName(*wl, *cores, *pages, *iters)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	cfg := latr.Config{
		Machine:         spec,
		Policy:          latr.PolicyKind(*policy),
		Seed:            *seed,
		CheckInvariants: *check,
		Audit:           *audit || *chaosProf != "",
	}
	if *traceOut != "" {
		cfg.SpanLimit = 1 << 20
	}
	if *numaOn {
		cfg.AutoNUMA = &latr.AutoNUMAConfig{}
	}
	sys := latr.NewSystem(cfg)
	k := sys.Kernel()
	if *chaosProf != "" {
		prof, err := latr.ChaosProfileByName(*chaosProf)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		cs := *chaosSeed
		if cs == 0 {
			cs = *seed
		}
		latr.NewChaosInjector(cs, prof).Install(k)
	}
	w.Setup(k)
	sys.RegisterAllForNUMA()

	limit := latr.Time(duration.Nanoseconds())
	step := 10 * latr.Millisecond
	for sys.Now() < limit && !w.Done() {
		next := sys.Now() + step
		if next > limit {
			next = limit
		}
		sys.Run(next)
	}

	fmt.Fprintf(stdout, "machine=%s policy=%s workload=%s simulated=%v\n",
		spec.Name, *policy, *wl, sys.Now())
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := sys.WritePerfetto(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: wrote %d spans to %s\n", len(sys.Spans().Retained()), *traceOut)
	}
	if *dump {
		fmt.Fprint(stdout, sys.Metrics().Dump())
	}
	return reportAudit(stdout, sys)
}

// reportAudit prints the auditor's verdict when the run audited, and
// returns exit status 2 on any violation.
func reportAudit(stdout io.Writer, sys *latr.System) int {
	a := sys.Audit()
	if a == nil {
		return 0
	}
	if a.Len() == 0 {
		fmt.Fprintln(stdout, "audit: no coherence violations")
		return 0
	}
	fmt.Fprintf(stdout, "audit: %d distinct violation(s), %d total occurrence(s)\n%s",
		a.Len(), a.Total(), a.Render())
	return 2
}

// machineFor resolves -machine and rejects a -policy or -cores value the
// single-machine modes cannot run, before anything is built.
func machineFor(machine, policy string, cores int) (latr.MachineSpec, error) {
	spec, err := latr.MachineByName(machine)
	if err != nil {
		return spec, err
	}
	if names := latr.PolicyNames(); !slices.Contains(names, policy) {
		return spec, fmt.Errorf("unknown policy %q (want one of %s)", policy, strings.Join(names, ", "))
	}
	if cores < 1 || cores > spec.NumCores() {
		return spec, fmt.Errorf("-cores %d out of range for %s (want 1..%d)", cores, spec.Name, spec.NumCores())
	}
	return spec, nil
}

// matrixFlags carries the -matrix mode configuration.
type matrixFlags struct {
	parallel                             int
	policies, workloads, machines, seeds string
	cores, pages, iters                  int
	duration                             latr.Time
	numa, check, verifySeq               bool
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// runMatrix executes the experiment matrix across the worker pool and
// prints one fingerprint line per run, in deterministic matrix order.
func runMatrix(stdout, stderr io.Writer, f matrixFlags) int {
	m := latr.ExperimentMatrix{
		Policies:  splitList(f.policies),
		Workloads: splitList(f.workloads),
		Machines:  splitList(f.machines),
		Cores:     f.cores,
		Pages:     f.pages,
		Iters:     f.iters,
		Duration:  f.duration,
		AutoNUMA:  f.numa,
	}
	if len(m.Policies) == 0 {
		m.Policies = latr.PolicyNames()
	}
	for _, s := range splitList(f.seeds) {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			fmt.Fprintf(stderr, "bad seed %q: %v\n", s, err)
			return 1
		}
		m.Seeds = append(m.Seeds, v)
	}
	if len(m.Seeds) == 0 {
		m.Seeds = []uint64{1}
	}
	specs := m.Specs()
	o := latr.ExperimentOptions{CheckInvariants: f.check}

	start := time.Now()
	results := latr.RunExperimentMatrix(specs, f.parallel, o)
	parWall := time.Since(start)

	failed := 0
	for _, r := range results {
		fmt.Fprintln(stdout, r.Fingerprint())
		if r.Err != "" {
			failed++
		}
	}
	fmt.Fprintf(stdout, "matrix: %d runs, %d workers, wall %.2fs\n", len(results), f.parallel, parWall.Seconds())
	if failed > 0 {
		fmt.Fprintf(stderr, "matrix: %d run(s) failed\n", failed)
		return 1
	}

	if f.verifySeq {
		start = time.Now()
		seq := latr.RunExperimentMatrix(specs, 1, o)
		seqWall := time.Since(start)
		mismatches := 0
		for i := range results {
			if results[i].Fingerprint() != seq[i].Fingerprint() {
				mismatches++
				fmt.Fprintf(stderr, "DIVERGED run %d:\n  par: %s\n  seq: %s\n",
					i, results[i].Fingerprint(), seq[i].Fingerprint())
			}
		}
		speedup := seqWall.Seconds() / parWall.Seconds()
		fmt.Fprintf(stdout, "verify-seq: sequential wall %.2fs, speedup %.2fx, mismatches %d\n",
			seqWall.Seconds(), speedup, mismatches)
		if mismatches > 0 {
			return 1
		}
	}
	return 0
}

// remoteFlags carries the -remote mode configuration.
type remoteFlags struct {
	machine, policy    string
	cores              int
	duration           latr.Time
	seed               uint64
	check, audit, dump bool
	remoteFrames       int64
}

// runRemote executes the §6.2 Infiniswap case study once and prints the
// request-latency percentiles.
func runRemote(stdout, stderr io.Writer, f remoteFlags) int {
	backend := remote.Config{RemoteFrames: f.remoteFrames}
	if err := backend.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	spec, err := machineFor(f.machine, f.policy, f.cores)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	spec = remote.Machine(spec)
	cores, err := spec.SpreadCores(f.cores)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	sys := latr.NewSystem(latr.Config{
		Machine:         spec,
		Policy:          latr.PolicyKind(f.policy),
		Seed:            f.seed,
		CheckInvariants: f.check,
		Audit:           f.audit,
	})
	w := remote.Memcached(sys.Kernel(), cores, f.seed, backend)
	sys.Run(f.duration)
	if !w.Loaded() {
		fmt.Fprintln(stderr, "remote: KV warm-up never finished; raise -duration")
		return 1
	}
	m := sys.Metrics()
	lat := w.Latency()
	fmt.Fprintf(stdout, "machine=%s policy=%s workload=memcached/remote simulated=%v\n",
		spec.Name, f.policy, sys.Now())
	fmt.Fprintf(stdout, "requests=%d req/s=%.0f\n", w.Requests(), float64(w.Requests())/f.duration.Seconds())
	fmt.Fprintf(stdout, "latency p50=%v p90=%v p99=%v p99.9=%v\n", lat.P50(), lat.P90(), lat.P99(), lat.P999())
	fmt.Fprintf(stdout, "swap out=%d in=%d dropped=%d\n",
		m.Counter("swap.out"), m.Counter("swap.in"), m.Counter("swap.dropped"))
	fmt.Fprintf(stdout, "remote pool_full=%d inflight_waits=%d\n",
		m.Counter("remote.pool_full"), m.Counter("remote.inflight_waits"))
	if f.dump {
		fmt.Fprint(stdout, m.Dump())
	}
	return reportAudit(stdout, sys)
}

// runCounterfactual re-runs one recorded seed with the knob perturbation
// cf names (Knob=value) and prints the coherence-span diff.
func runCounterfactual(stdout, stderr io.Writer, cf, cell string, quick bool, seed uint64) int {
	knob, raw, ok := strings.Cut(cf, "=")
	if !ok {
		fmt.Fprintf(stderr, "latr-sim: -tune-cf wants Knob=value, got %q\n", cf)
		return 2
	}
	value, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		d, derr := time.ParseDuration(raw)
		if derr != nil {
			fmt.Fprintf(stderr, "latr-sim: -tune-cf value %q is neither an integer nor a duration\n", raw)
			return 2
		}
		value = d.Nanoseconds()
	}
	wl, machine, ok := strings.Cut(cell, "@")
	if !ok {
		fmt.Fprintf(stderr, "latr-sim: -tune-cell wants workload@machine, got %q\n", cell)
		return 2
	}
	diff, err := latr.RunCounterfactual(latr.CounterfactualConfig{
		Cell:  latr.TuneCell{Workload: wl, Machine: machine},
		Seed:  seed,
		Quick: quick,
		Knob:  knob,
		Value: value,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprint(stdout, diff.Render())
	return 0
}

// litmusFlags carries the -litmus mode configuration.
type litmusFlags struct {
	gen, virtGen                    int
	genSeed, seed                   uint64
	only, policies, machines, chaos string
	parallel                        int
	verbose                         bool
}

// runLitmus executes the handwritten (and optionally generated) litmus
// corpus through the differential oracle and reports PASS/FAIL.
func runLitmus(stdout, stderr io.Writer, f litmusFlags) int {
	var scs []*latr.LitmusScenario
	if f.only != "" {
		sc := latr.LitmusScenarioByName(f.only)
		if sc == nil {
			fmt.Fprintf(stderr, "unknown litmus scenario %q\n", f.only)
			return 1
		}
		scs = []*latr.LitmusScenario{sc}
	} else {
		scs = latr.LitmusScenarios()
	}
	if f.gen > 0 {
		scs = append(scs, latr.GenerateLitmus(f.genSeed, f.gen)...)
	}
	if f.virtGen > 0 {
		scs = append(scs, latr.GenerateVirtLitmus(f.genSeed, f.virtGen)...)
	}
	rep := latr.RunLitmusSuite(scs, latr.LitmusSuiteConfig{
		Policies: splitList(f.policies),
		Topos:    splitList(f.machines),
		Chaos:    splitList(f.chaos),
		Seed:     f.seed,
		Workers:  f.parallel,
	})
	if f.verbose {
		for i := range rep.Outcomes {
			o := &rep.Outcomes[i]
			switch {
			case o.Skipped:
				fmt.Fprintf(stdout, "SKIP %s\n", o.Key())
			case len(o.Failures) > 0:
				fmt.Fprintf(stdout, "FAIL %s (%d failure(s))\n", o.Key(), len(o.Failures))
			default:
				fmt.Fprintf(stdout, "ok   %s\n", o.Key())
			}
		}
	}
	fmt.Fprintln(stdout, rep.Summary())
	if rep.Failed() {
		fmt.Fprint(stdout, rep.RenderFailures(20))
		return 1
	}
	return 0
}
