// Command perfbench is the repository's benchmark. It builds simulated
// machines through the public constructors, runs one of three workloads in
// rounds for a fixed host-time budget, checks every simulated output
// against committed digests, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as one JSON object on its last line.
//
//	bash perfbench/run.sh --workload apache-sweep --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for what each workload and metric is for.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off over the timed phase (medians over rounds).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_rel", "ratio"},
	{"cpu_rel", "ratio"},
	{"allocs_m", "M"},
	{"alloc_mb", "MB"},
	{"heap_live_mb", "MB"},
}

// perLayer are the traced run's metrics. Counts are exact per round;
// timings are medians over the traced rounds' spans, with their sample
// counts in the matching .n metric.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.dispatch_ratio", "ratio"},
	{"kernel.faults", "count"},
	{"kernel.context_switches", "count"},
	{"tlb.lookups", "count"},
	{"tlb.hit_ratio", "ratio"},
	{"tlb.invalidations", "count"},
	{"core.states_recorded", "count"},
	{"core.sweep_useful_ratio", "ratio"},
	{"shootdown.initiated", "count"},
	{"shootdown.targets_per_shootdown", "ratio"},
	{"obs.spans", "count"},
	{"litmus.runs", "count"},
	{"gc.cycles", "count"},
	{"kernel.allocs_per_event", "ratio"},
	{"kernel.new_us", "us"},
	{"kernel.new_us.n", "count"},
	{"kernel.new_kb", "KB"},
	{"workload.setup_us", "us"},
	{"workload.setup_us.n", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.ns_per_event.n", "count"},
	{"litmus.run_ms.p50", "ms"},
	{"litmus.run_ms.p98", "ms"},
	{"litmus.run_ms.n", "count"},
	{"trace.overhead", "ratio"},
	{"sim.cpu_share", "share"},
	{"kernel.cpu_share", "share"},
	{"tlb.cpu_share", "share"},
	{"pt.cpu_share", "share"},
	{"vm.cpu_share", "share"},
	{"mem.cpu_share", "share"},
	{"core.cpu_share", "share"},
	{"shootdown.cpu_share", "share"},
	{"metrics.cpu_share", "share"},
	{"obs.cpu_share", "share"},
	{"workload.cpu_share", "share"},
	{"litmus.cpu_share", "share"},
	{"gc.cpu_share", "share"},
	{"other.cpu_share", "share"},
	{"kernel.alloc_share", "share"},
	{"tlb.alloc_share", "share"},
	{"profile.samples", "count"},
	{"host.wall_s", "s"},
	{"host.cpu_s", "s"},
	{"host.setup_s", "s"},
	{"host.ref_s", "s"},
}

// unmeasured says, per workload, which per-layer metrics it reports as 0
// and why.
var unmeasured = map[string][]string{
	apacheSweep:  {"litmus.runs, litmus.run_ms.*: no litmus runs in this workload; reported as 0"},
	cannealTouch: {"litmus.runs, litmus.run_ms.*: no litmus runs in this workload; reported as 0"},
	litmusCorpus: {
		"sim.*, kernel.faults, kernel.context_switches, kernel.allocs_per_event, tlb.lookups, tlb.hit_ratio, tlb.invalidations, core.*, shootdown.*, obs.spans: litmus.RunScenario builds and drops its kernel without exporting it, so these counts cannot be read from outside; reported as 0",
		"workload.setup_us: litmus scenarios have no workload Setup; reported as 0",
		"kernel.new_us, kernel.new_kb: timed on a probe that builds each (topology, policy) machine shape RunScenario builds, once per traced round",
	},
}

// minRounds lets every run compare rounds for determinism, and lets a
// traced run have an untraced and a traced round.
const minRounds = 2

func main() {
	// The reference's CPU time is read per thread; keep this goroutine,
	// which runs every machine, on one.
	runtime.LockOSThread()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: apache-sweep, canneal-touch or litmus-corpus")
	seed := fs.Uint64("seed", 1, "input seed; 1 is the paper configuration")
	seconds := fs.Float64("seconds", 10, "host seconds to keep starting rounds for")
	trace := fs.Int("trace", 0, "1: alternate traced rounds and print per-layer metrics")
	record := fs.Bool("record", false, "run one round and print its digest line for digests.txt")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	p, err := makePlan(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	// One P: the simulator, its GC and the reference pieces share one
	// thread, so the pieces see the same host the simulator runs on.
	const procs = 1
	runtime.GOMAXPROCS(procs)

	if *record {
		res := runRound(p.workload, p.seed, &tracer{}, nil, nil)
		for _, op := range res.ops {
			if op.failed > 0 {
				fmt.Fprintf(stderr, "perfbench: not recording %s seed %d: %s: %s\n", p.workload, p.seed, op.id, op.why)
				return 1
			}
		}
		fmt.Fprintln(stdout, digestLine(p.workload, p.seed, res.ops))
		return 0
	}

	rep := measure(p, time.Duration(*seconds*float64(time.Second)), *trace == 1, committedDigests)
	fmt.Fprintf(stdout, "perfbench: workload %s, seed %d, %d round(s), GOMAXPROCS %d\n", p.workload, p.seed, len(rep.rounds), procs)
	for i, r := range rep.rounds {
		fmt.Fprintf(stdout, "round %d: traced=%v setup=%.6fs wall=%.4fs cpu=%.4fs ref=%.6fs/%.6fs x%d wall_rel=%.2f cpu_rel=%.2f allocs=%d bytes=%d live=%d gcs=%d\n",
			i, r.traced, median(durSeconds(r.setups)), r.wall.Seconds(), r.cpu.Seconds(), r.refWall.Seconds(), r.refCPU.Seconds(), r.pieces, r.relWall, r.relCPU, r.mallocs, r.bytes, r.live, r.gcs)
	}
	for _, line := range rep.notes {
		fmt.Fprintln(stdout, "note:", line)
	}
	if *trace == 1 {
		for _, line := range unmeasured[p.workload] {
			fmt.Fprintln(stdout, "note:", line)
		}
	}
	e2e, layers := rep.endToEnd(), rep.perLayer()
	printTable(stdout, "end-to-end (tracing off)", endToEnd, e2e)
	if *trace == 1 {
		printTable(stdout, "per-layer (traced run)", perLayer, layers)
		if err := rep.tr.write(fmt.Sprintf(".bench_build/spans/%s-seed%d.json", p.workload, p.seed)); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
		}
	}
	defs, vals := endToEnd, e2e
	if *trace == 1 {
		defs, vals = perLayer, layers
	}
	out := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func printTable(w io.Writer, title string, defs []metricDef, vals map[string]float64) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
}

// roundResult is what one round measured. wall and cpu are the timed
// phase's, with the interleaved reference pieces taken out; relWall and
// relCPU are the same in local reference units.
type roundResult struct {
	traced         bool
	setups         []time.Duration
	setupRel       []float64 // setups in local reference units
	wall, cpu      time.Duration
	relWall        float64
	relCPU         float64
	refWall        time.Duration // mean reference piece wall time
	refCPU         time.Duration // mean reference piece CPU time
	pieces         int
	mallocs, bytes uint64
	live           uint64
	gcs            uint32
	ops            []opResult
	counts         counts
}

// report is a whole run: every round plus the checks across them.
type report struct {
	plan              *plan
	rounds            []roundResult
	attempted, failed int
	notes             []string
	tr                *tracer
	probe             *probeStats
	cpu               cpuShares
}

// measure runs rounds until budget has passed (at least minRounds). With
// traced set, odd rounds are traced and profiled and even ones are not.
func measure(p *plan, budget time.Duration, traced bool, want map[string][]string) *report {
	rep := &report{plan: p, tr: &tracer{t0: time.Now()}}
	if traced {
		rep.probe = &probeStats{}
	}
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start) < budget; i++ {
		var probe *probeStats
		var prof *bytes.Buffer
		if traced && i%2 == 1 {
			probe, prof = rep.probe, &bytes.Buffer{}
		}
		rep.tr.on = prof != nil
		r := runRound(p.workload, p.seed, rep.tr, probe, prof)
		rep.tr.on = false
		if prof != nil {
			if err := rep.cpu.addProfile(prof.Bytes()); err != nil {
				rep.notes = append(rep.notes, err.Error())
			}
		}
		rep.rounds = append(rep.rounds, r)
	}
	rep.check(want)
	return rep
}

// setupReps is how many times each round sets up; setup_s is the median
// over every set-up of the run, and the last one is the one that runs.
const setupReps = 9

// runRound is one round: set-up (generating the inputs and building every
// machine), then the timed phase, then a forced GC with every machine
// still reachable to read the live heap. A non-nil prof traces the round:
// spans go to tr, set-up samples to probe, and a CPU profile to prof.
func runRound(name string, seed uint64, tr *tracer, probe *probeStats, prof *bytes.Buffer) roundResult {
	r := roundResult{traced: prof != nil}
	var in *instance
	// Each set-up runs between two reference pieces and is divided by
	// their mean; the last one's second piece is the timed phase's first.
	var pieces []time.Duration
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		pieces = append(pieces, timePiece())
		t0 := time.Now()
		p, _ := makePlan(name, seed) // run validated the name
		if i == setupReps-1 {
			in = setup(p, tr, probe)
		} else {
			in = setup(p, &tracer{}, nil)
		}
		r.setups = append(r.setups, time.Since(t0))
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, bytes0, gcs := ms.Mallocs, ms.TotalAlloc, ms.NumGC
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof = nil
		}
	}
	d := &drift{}
	d.sample()
	pieces = append(pieces, d.pieceWall)
	for i, s := range r.setups {
		r.setupRel = append(r.setupRel, float64(s)/(float64(pieces[i]+pieces[i+1])/2))
	}
	r.ops = in.run(tr, &r.counts, d)
	d.sample()
	if prof != nil {
		pprof.StopCPUProfile()
	}
	r.wall, r.cpu, r.relWall, r.relCPU = d.simWall, d.simCPU, d.relWall, d.relCPU
	r.refWall, r.refCPU, r.pieces = d.wall/time.Duration(d.pieces), d.cpu/time.Duration(d.pieces), d.pieces
	runtime.ReadMemStats(&ms)
	r.mallocs, r.bytes, r.gcs = ms.Mallocs-mallocs, ms.TotalAlloc-bytes0, ms.NumGC-gcs

	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.live = ms.HeapAlloc
	runtime.KeepAlive(in)
	return r
}

// check counts operations and failures over every round: an operation
// fails if it panicked or did not finish, failed a litmus oracle or the
// comparator, differs from the same seed's first round, or differs from
// the committed digest for this seed.
func (rep *report) check(want map[string][]string) {
	committed, ok := want[digestKey(rep.plan.workload, rep.plan.seed)]
	if !ok {
		rep.notes = append(rep.notes, fmt.Sprintf("no committed digests for %s seed %d: digest check skipped (oracles and round-to-round determinism still checked)", rep.plan.workload, rep.plan.seed))
	}
	first := rep.rounds[0].ops
	noted := map[string]bool{}
	for ri := range rep.rounds {
		ops := rep.rounds[ri].ops
		for i := range ops {
			op := &ops[i]
			switch {
			case ok && (len(committed) != len(ops) || committed[i] != op.digest):
				op.fail(op.runs, "output differs from the committed digest")
			case ri > 0 && (len(first) != len(ops) || first[i].digest != op.digest):
				op.fail(op.runs, "output differs from the first round's")
			}
			rep.attempted += op.runs
			rep.failed += op.failed
			if op.failed > 0 && !noted[op.id] {
				noted[op.id] = true
				rep.notes = append(rep.notes, fmt.Sprintf("FAIL round %d, %s: %s", ri, op.id, op.why))
			}
		}
	}
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank q-quantile.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

// untraced returns f applied to every untraced round.
func (rep *report) untraced(f func(r roundResult) float64) []float64 {
	var out []float64
	for _, r := range rep.rounds {
		if !r.traced {
			out = append(out, f(r))
		}
	}
	return out
}

// setupSeconds returns every untraced set-up's time, raw or (rel) in
// reference units scaled to refNominal seconds.
func (rep *report) setupSeconds(rel bool) []float64 {
	var out []float64
	for _, r := range rep.rounds {
		if r.traced {
			continue
		}
		for i, d := range r.setups {
			if rel {
				out = append(out, r.setupRel[i]*refNominal.Seconds())
			} else {
				out = append(out, d.Seconds())
			}
		}
	}
	return out
}

func (rep *report) endToEnd() map[string]float64 {
	med := func(f func(r roundResult) float64) float64 { return median(rep.untraced(f)) }
	return map[string]float64{
		"setup_s":      median(rep.setupSeconds(true)),
		"wall_rel":     med(func(r roundResult) float64 { return r.relWall }),
		"cpu_rel":      med(func(r roundResult) float64 { return r.relCPU }),
		"allocs_m":     med(func(r roundResult) float64 { return float64(r.mallocs) / 1e6 }),
		"alloc_mb":     med(func(r roundResult) float64 { return float64(r.bytes) / (1 << 20) }),
		"heap_live_mb": med(func(r roundResult) float64 { return float64(r.live) / (1 << 20) }),
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (rep *report) perLayer() map[string]float64 {
	r0 := rep.rounds[0]
	c := r0.counts
	m := map[string]float64{
		"sim.events":                      float64(c.events),
		"sim.dispatch_ratio":              ratio(c.events, c.scheduled),
		"kernel.faults":                   float64(c.faults),
		"kernel.context_switches":         float64(c.ctxSwitches),
		"tlb.lookups":                     float64(c.tlbHits + c.tlbMisses),
		"tlb.hit_ratio":                   ratio(c.tlbHits, c.tlbHits+c.tlbMisses),
		"tlb.invalidations":               float64(c.tlbInvalidations),
		"core.states_recorded":            float64(c.statesRecorded),
		"core.sweep_useful_ratio":         ratio(c.sweepsWithWork, c.sweeps),
		"shootdown.initiated":             float64(c.shootdowns),
		"shootdown.targets_per_shootdown": ratio(c.targets, c.shootdowns),
		"obs.spans":                       float64(c.spans),
		"litmus.runs":                     float64(c.litmusRuns),
		"gc.cycles":                       median(rep.untraced(func(r roundResult) float64 { return float64(r.gcs) })),
		"kernel.allocs_per_event":         ratio(r0.mallocs, c.events),
		"host.wall_s":                     median(rep.untraced(func(r roundResult) float64 { return r.wall.Seconds() })),
		"host.cpu_s":                      median(rep.untraced(func(r roundResult) float64 { return r.cpu.Seconds() })),
		"host.setup_s":                    median(rep.setupSeconds(false)),
		"host.ref_s":                      median(rep.untraced(func(r roundResult) float64 { return r.refWall.Seconds() })),
		"profile.samples":                 float64(rep.cpu.total),
		"other.cpu_share":                 rep.cpu.otherShare(),
		"kernel.alloc_share":              rep.cpu.allocShare("kernel"),
		"tlb.alloc_share":                 rep.cpu.allocShare("tlb"),
	}
	for _, l := range cpuLayers {
		m[l+".cpu_share"] = rep.cpu.share(l)
	}

	var tracedRel []float64
	var events, hostNS, slices uint64
	for _, r := range rep.rounds {
		if r.traced {
			tracedRel = append(tracedRel, r.relWall)
			events += r.counts.events
			hostNS += r.counts.sliceHostNS
			slices += r.counts.sliceCount
		}
	}
	// Both sides in reference units, so host drift between the alternating
	// rounds cancels as it does in wall_rel.
	if w := median(rep.untraced(func(r roundResult) float64 { return r.relWall })); w > 0 && len(tracedRel) > 0 {
		m["trace.overhead"] = median(tracedRel)/w - 1
	}
	if rep.probe != nil {
		m["kernel.new_us"] = median(rep.probe.newNS) / 1e3
		m["kernel.new_us.n"] = float64(len(rep.probe.newNS))
		m["kernel.new_kb"] = median(rep.probe.newKB)
		m["workload.setup_us"] = median(rep.probe.setupNS) / 1e3
		m["workload.setup_us.n"] = float64(len(rep.probe.setupNS))
	}
	m["sim.ns_per_event"] = ratio(hostNS, events)
	m["sim.ns_per_event.n"] = float64(slices)
	runs := rep.tr.durations("litmus.RunScenario")
	for i := range runs {
		runs[i] /= 1e6
	}
	m["litmus.run_ms.p50"] = median(runs)
	m["litmus.run_ms.p98"] = percentile(runs, 0.98)
	m["litmus.run_ms.n"] = float64(len(runs))
	return m
}
