package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"strings"
	"time"

	"latr/internal/cost"
	"latr/internal/experiments"
	"latr/internal/kernel"
	"latr/internal/litmus"
	"latr/internal/sim"
	"latr/internal/topo"
	"latr/internal/workload"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	apacheSweep  = "apache-sweep"
	cannealTouch = "canneal-touch"
	litmusCorpus = "litmus-corpus"
)

var workloadNames = []string{apacheSweep, cannealTouch, litmusCorpus}

const (
	// kernelSeed is every machine's kernel-side seed: the one the
	// experiment harness derives from its default seed 1, so seed 1's
	// machines are exactly the quick-mode paper runs.
	kernelSeed = 1 ^ 0x9e3779b9

	// apacheDuration is the Fig 1/9 quick-mode run length; apacheSlice
	// splits it into Kernel.Run calls so the trace has per-slice samples.
	// Slicing RunUntil is invisible to the simulation.
	apacheDuration = 120 * sim.Millisecond
	apacheSlice    = 10 * sim.Millisecond
	// parsecSlice and parsecLimit match the experiment harness's
	// run-to-completion loop.
	parsecSlice = 100 * sim.Millisecond
	parsecLimit = 120 * sim.Second

	// litmusGenerated scenarios join the handwritten corpus each round.
	litmusGenerated = 40
	// jitter is the ±share by which seeds other than 1 draw each
	// machine's CPU-segment lengths.
	jitter = 0.10
)

var (
	apachePolicies = []string{"linux", "abis", "latr"}
	apacheCores    = []int{2, 4, 6, 8, 10, 12}
	cannealPols    = []string{"linux", "latr"}
	litmusTopos    = []string{"2x8", "8x15"}
)

// machinePlan is the generated input of one apache-sweep or canneal-touch
// machine: its policy and the workload config the public constructor gets.
type machinePlan struct {
	id     string
	policy string
	apache *workload.ApacheConfig
	parsec *workload.ParsecProfile
	cores  int
}

// plan is everything a seed generates for one round of a workload.
type plan struct {
	workload  string
	seed      uint64
	machines  []machinePlan
	scenarios []*litmus.Scenario // handwritten corpus first, then generated
}

// splitmix is the benchmark's own input generator (SplitMix64), so seeds
// map to inputs independently of the simulator's random streams.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// scale draws d×(1±jitter), rounded to whole nanoseconds.
func (s *splitmix) scale(d sim.Time) sim.Time {
	u := float64(s.next()>>11)/(1<<53)*2 - 1
	return sim.Time(float64(d)*(1+jitter*u) + 0.5)
}

func coreIDs(n int) []topo.CoreID {
	out := make([]topo.CoreID, n)
	for i := range out {
		out[i] = topo.CoreID(i)
	}
	return out
}

// makePlan generates the inputs of one workload for one seed. Seed 1 is
// the paper configuration; any other seed changes only generated inputs:
// per-machine CPU-segment lengths, or which litmus scenarios are generated.
func makePlan(name string, seed uint64) (*plan, error) {
	p := &plan{workload: name, seed: seed}
	rng := splitmix(seed)
	switch name {
	case apacheSweep:
		for _, cores := range apacheCores {
			for _, pol := range apachePolicies {
				cfg := workload.DefaultApacheConfig(coreIDs(cores))
				if seed != 1 {
					cfg.ParseWork = rng.scale(cfg.ParseWork)
					cfg.ServeWork = rng.scale(cfg.ServeWork)
					cfg.NetWork = rng.scale(cfg.NetWork)
				}
				p.machines = append(p.machines, machinePlan{id: fmt.Sprintf("%s-c%d", pol, cores), policy: pol, apache: &cfg, cores: cores})
			}
		}
	case cannealTouch:
		for _, pol := range cannealPols {
			prof, _ := workload.ParsecProfileByName("canneal")
			if seed != 1 {
				prof.OpWork = rng.scale(prof.OpWork)
			}
			p.machines = append(p.machines, machinePlan{id: pol, policy: pol, parsec: &prof, cores: 16})
		}
	case litmusCorpus:
		p.scenarios = litmus.Scenarios()
		p.scenarios = append(p.scenarios, litmus.GenerateMany(rng.next(), litmusGenerated)...)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	return p, nil
}

// opResult is the checked output of one unit of work: a machine, or a
// litmus scenario across both topologies. runs is the number of
// operations it covers (1 per machine, one per litmus run).
type opResult struct {
	id     string
	digest string
	runs   int
	failed int
	why    string
}

func (r *opResult) fail(n int, why string) {
	r.failed += n
	if r.failed > r.runs {
		r.failed = r.runs
	}
	if r.why == "" {
		r.why = why
	}
}

// counts are the per-layer counts read from the machines after a round,
// which repeat exactly for a given seed, plus the host time and number of
// the traced Kernel.Run slices.
type counts struct {
	events, scheduled       uint64
	faults, ctxSwitches     uint64
	tlbHits, tlbMisses      uint64
	tlbInvalidations        uint64
	statesRecorded          uint64
	sweepsWithWork, sweeps  uint64
	shootdowns, targets     uint64
	spans                   uint64
	litmusRuns              uint64
	sliceHostNS, sliceCount uint64
}

// machine is one built apache-sweep or canneal-touch machine.
type machine struct {
	plan    machinePlan
	k       *kernel.Kernel
	apache  *workload.Apache
	parsec  *workload.Parsec
	unit    string
	failure string
}

// instance is one round's built workload: every machine (or the litmus
// scenarios) ready for the timed phase.
type instance struct {
	plan     *plan
	machines []*machine
}

// setup builds every machine through the public constructors. It is the
// set-up phase that setup_s times (together with makePlan).
func setup(p *plan, tr *tracer, probe *probeStats) *instance {
	in := &instance{plan: p}
	for i := range p.machines {
		m := &machine{plan: p.machines[i], unit: p.machines[i].id}
		m.build(tr, probe)
		in.machines = append(in.machines, m)
	}
	if p.workload == litmusCorpus && probe != nil {
		probeLitmusConstruction(tr, probe)
	}
	return in
}

func (m *machine) build(tr *tracer, probe *probeStats) {
	defer func() {
		if r := recover(); r != nil {
			m.failure = fmt.Sprint("set-up panic: ", r)
		}
	}()
	spec := topo.TwoSocket16()
	pol, err := experiments.NewPolicy(m.plan.policy)
	if err != nil {
		m.failure = err.Error()
		return
	}
	before := probe.heapAllocated()
	sp := tr.begin("kernel.New", m.unit, 0)
	m.k = kernel.New(spec, cost.Default(spec), pol, kernel.Options{Seed: kernelSeed})
	probe.kernelNew(tr.end(sp), before)
	sp = tr.begin("workload.Setup", m.unit, 0)
	if m.plan.apache != nil {
		m.apache = workload.NewApache(*m.plan.apache)
		m.apache.Setup(m.k)
	} else {
		m.parsec = workload.NewParsec(*m.plan.parsec, coreIDs(m.plan.cores))
		m.parsec.Setup(m.k)
	}
	probe.workloadSetup(tr.end(sp))
}

// probeLitmusConstruction times kernel.New for every machine shape the
// litmus suite builds (each policy on each topology, audit on, as
// litmus.RunScenario builds them): RunScenario constructs its kernels
// internally, so this is the only place the benchmark can see them.
func probeLitmusConstruction(tr *tracer, probe *probeStats) {
	for _, tp := range litmusTopos {
		spec := topo.TwoSocket16()
		if tp == "8x15" {
			spec = topo.EightSocket120()
		}
		for _, name := range litmus.DefaultPolicies {
			pol, err := experiments.NewPolicy(name)
			if err != nil {
				continue
			}
			before := probe.heapAllocated()
			sp := tr.begin("kernel.New", "probe/"+tp+"/"+name, 0)
			kernel.New(spec, cost.Default(spec), pol, kernel.Options{Seed: kernelSeed, Audit: true})
			probe.kernelNew(tr.end(sp), before)
		}
	}
}

// run is the timed phase: every machine (or litmus cell) in turn, on this
// goroutine, with each output checked.
func (in *instance) run(tr *tracer, c *counts, d *drift) []opResult {
	if in.plan.workload == litmusCorpus {
		return runLitmus(in.plan.scenarios, tr, c, d)
	}
	out := make([]opResult, 0, len(in.machines))
	for _, m := range in.machines {
		out = append(out, m.run(tr, c, d))
	}
	return out
}

func (m *machine) run(tr *tracer, c *counts, d *drift) (res opResult) {
	res = opResult{id: m.unit, runs: 1}
	if m.failure != "" {
		res.fail(1, m.failure)
		return res
	}
	root := tr.begin("machine", m.unit, 0)
	defer tr.end(root)
	defer func() {
		if r := recover(); r != nil {
			res.fail(1, fmt.Sprint("panic: ", r))
		}
	}()
	k := m.k
	slice := func(deadline sim.Time) {
		before := k.Engine.Dispatched()
		sp := tr.begin("Kernel.Run", m.unit, root)
		k.Run(deadline)
		if d := tr.end(sp); d > 0 {
			c.sliceHostNS += uint64(d)
			c.sliceCount++
			tr.setEvents(sp, k.Engine.Dispatched()-before)
		}
		d.maybe()
	}
	var result int64
	if m.apache != nil {
		for t := apacheSlice; t <= apacheDuration; t += apacheSlice {
			slice(t)
		}
		result = int64(m.apache.Requests())
	} else {
		for k.Now() < parsecLimit && !m.parsec.Done() {
			slice(k.Now() + parsecSlice)
		}
		if !m.parsec.Done() {
			res.fail(1, fmt.Sprintf("did not finish within %v simulated", parsecLimit))
		}
		result = int64(m.parsec.FinishTime())
	}
	sp := tr.begin("fingerprint", m.unit, root)
	res.digest = fmt.Sprintf("%016x:%d", k.Metrics.Fingerprint(), result)
	tr.end(sp)
	c.add(k)
	return res
}

// add folds one finished machine's exported counters into c.
func (c *counts) add(k *kernel.Kernel) {
	c.events += k.Engine.Dispatched()
	c.scheduled += k.Engine.Scheduled()
	r := k.Metrics
	for _, name := range r.Names() {
		switch {
		case strings.HasPrefix(name, "fault."):
			c.faults += r.Counter(name)
		case strings.HasPrefix(name, "span.") && strings.HasSuffix(name, ".invalidate"):
			c.targets += r.Perc(name).Count()
		}
	}
	c.ctxSwitches += r.Counter("sched.context_switches")
	c.statesRecorded += r.Counter("latr.states_recorded")
	c.sweepsWithWork += r.Counter("latr.sweeps_with_work")
	c.sweeps += r.Hist("latr.sweep_visit").Count()
	c.shootdowns += r.Counter("shootdown.initiated")
	c.spans += r.Counter("span.opened")
	for _, core := range k.Cores {
		st := core.TLB.Stats
		c.tlbHits += st.Hits
		c.tlbMisses += st.Misses
		c.tlbInvalidations += st.Invlpg + st.FullFlushes
	}
}

// litmusRunSeed mirrors litmus.RunSuite's per-scenario seed for suite seed
// 1, so a scenario's digest equals the suite's for the same position.
func litmusRunSeed(si int) uint64 { return 1 + uint64(si)*1000003 }

// runLitmus runs each scenario under every default policy on both
// topologies; the reference-model oracle (inside RunScenario) and the
// cross-policy comparator judge every run.
func runLitmus(scs []*litmus.Scenario, tr *tracer, c *counts, d *drift) []opResult {
	out := make([]opResult, 0, len(scs))
	for si, sc := range scs {
		res := opResult{id: sc.Name}
		h := fnv.New64a()
		for _, tp := range litmusTopos {
			unit := sc.Name + "/" + tp
			cell := tr.begin("cell", unit, 0)
			runCell(sc, si, tp, unit, cell, tr, &res, h)
			tr.end(cell)
			d.maybe()
		}
		c.litmusRuns += uint64(res.runs)
		res.digest = fmt.Sprintf("%08x", uint32(h.Sum64()^h.Sum64()>>32))
		out = append(out, res)
	}
	return out
}

func runCell(sc *litmus.Scenario, si int, tp, unit string, cell int, tr *tracer, res *opResult, h io.Writer) {
	defer func() {
		if r := recover(); r != nil {
			res.runs++
			res.fail(1, fmt.Sprintf("%s: panic: %v", unit, r))
		}
	}()
	outs := make([]litmus.Outcome, 0, len(litmus.DefaultPolicies))
	for _, pol := range litmus.DefaultPolicies {
		sp := tr.begin("litmus.RunScenario", unit, cell)
		o := litmus.RunScenario(sc, litmus.RunConfig{Policy: pol, Topo: tp, Seed: litmusRunSeed(si)})
		tr.end(sp)
		outs = append(outs, o)
	}
	sp := tr.begin("litmus.ComparePolicies", unit, cell)
	diffs := litmus.ComparePolicies(sc, outs)
	tr.end(sp)
	sp = tr.begin("fingerprint", unit, cell)
	for _, o := range outs {
		if o.Skipped {
			continue
		}
		res.runs++
		h.Write([]byte(outcomeDigest(o)))
		h.Write([]byte{0})
		switch {
		case len(o.Failures) > 0:
			res.fail(1, o.Key()+": "+firstLine(o.Failures[0]))
		case namedIn(diffs, o.Key()):
			res.fail(1, o.Key()+": cross-policy mismatch")
		}
	}
	tr.end(sp)
}

// outcomeDigest renders the determinism-relevant fields of an outcome in
// the same form the litmus suite folds into its digest.
func outcomeDigest(o litmus.Outcome) string {
	return fmt.Sprintf("%s|%s|%v|%d|%d|%d|%d|%v|%016x|%d|%d|%d|%d|%d|%d|%d",
		o.Key(), o.Final, o.Faults, o.Violations, o.FramesInUse, o.LazyPages, o.Orphans, o.Deadlocked, o.EngineFP, o.SwapOuts, o.SwapIns, o.VMExits, o.EPTViolations, o.ReplReplicas, o.ReplStale, o.ReplLost)
}

func namedIn(diffs []string, key string) bool {
	for _, d := range diffs {
		if strings.HasPrefix(d, key+":") {
			return true
		}
	}
	return false
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// probeStats collects the set-up span samples of traced rounds; a nil
// probe (untraced rounds) records nothing and reads no heap statistics.
type probeStats struct {
	newNS, newKB []float64
	setupNS      []float64
}

// heapAllocated reads cumulative heap bytes allocated. It stops the world,
// so it runs only in traced rounds and outside the spans it brackets.
func (p *probeStats) heapAllocated() uint64 {
	if p == nil {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func (p *probeStats) kernelNew(d time.Duration, allocatedBefore uint64) {
	if p == nil {
		return
	}
	kb := float64(p.heapAllocated()-allocatedBefore) / 1024
	p.newNS = append(p.newNS, float64(d))
	p.newKB = append(p.newKB, kb)
}

func (p *probeStats) workloadSetup(d time.Duration) {
	if p != nil {
		p.setupNS = append(p.setupNS, float64(d))
	}
}
