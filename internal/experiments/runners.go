package experiments

import (
	"fmt"

	"latr/internal/cache"
	"latr/internal/cost"
	"latr/internal/kernel"
	"latr/internal/numa"
	"latr/internal/shootdown"
	"latr/internal/sim"
	"latr/internal/topo"
	"latr/internal/workload"
)

// Options tunes experiment size. Quick mode shrinks iteration counts for
// unit tests and -short benchmark runs; the shapes are preserved.
type Options struct {
	Quick bool
	Seed  uint64
	// CheckInvariants turns on the shadow-tracker audit (slower).
	CheckInvariants bool
	// Workers sets the experiment-level fan-out: independent runs within a
	// figure/table execute on up to Workers goroutines (each run still owns
	// a private kernel). 0 or 1 means sequential; -1 means GOMAXPROCS.
	// Output is identical for every value — only wall-clock time changes.
	Workers int
}

// workers normalizes the fan-out width: 0 (the zero value) stays
// sequential so existing callers are unaffected; negative asks fan for
// GOMAXPROCS.
func (o Options) workers() int {
	if o.Workers == 0 {
		return 1
	}
	return o.Workers
}

// scale returns full for normal runs, quick in quick mode.
func (o Options) scale(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

func (o Options) scaleT(full, quick sim.Time) sim.Time {
	if o.Quick {
		return quick
	}
	return full
}

// PolicyNames lists the bare-metal policies the single-machine modes
// offer; NewPolicy also accepts the virtualized ones (shootdown.Names).
func PolicyNames() []string {
	return []string{"linux", "latr", "abis", "barrelfish", "instant"}
}

// VirtPolicyNames lists the policies the virtualized two-level table
// sweeps: the two bare-metal references plus the three policies that
// differ only in who keeps the EPT level coherent.
func VirtPolicyNames() []string {
	return []string{"linux", "latr", "guest-latr", "host-latr", "hatric"}
}

// NewPolicy builds a fresh policy instance by name (shootdown.ByName).
func NewPolicy(name string) (kernel.Policy, error) { return shootdown.ByName(name) }

func mustPolicy(name string) kernel.Policy {
	p, err := NewPolicy(name)
	if err != nil {
		panic(err)
	}
	return p
}

// mustMachine resolves a machine shape the tables name themselves.
func mustMachine(name string) topo.Spec {
	spec, err := topo.ByName(name)
	if err != nil {
		panic(err)
	}
	return spec
}

// newKernel assembles a machine with a fresh policy.
func newKernel(spec topo.Spec, policy string, o Options) *kernel.Kernel {
	return kernel.New(spec, cost.Default(spec), mustPolicy(policy), kernel.Options{
		Seed:            o.Seed ^ 0x9e3779b9,
		CheckInvariants: o.CheckInvariants,
	})
}

func coresN(n int) []topo.CoreID {
	out := make([]topo.CoreID, n)
	for i := range out {
		out[i] = topo.CoreID(i)
	}
	return out
}

// microResult is one munmap-microbenchmark measurement.
type microResult struct {
	MunmapNS    float64 // mean munmap latency
	ShootdownNS float64 // mean shootdown portion of it
}

// runMicro executes the §6.2.1 microbenchmark on spec.
func runMicro(spec topo.Spec, policy string, cores, pages, iters int, o Options) microResult {
	k := newKernel(spec, policy, o)
	m := workload.NewMicro(workload.MicroConfig{Cores: cores, Pages: pages, Iters: iters})
	m.Setup(k)
	limit := 60 * sim.Second
	for k.Now() < limit && !m.Done() {
		k.Run(k.Now() + 50*sim.Millisecond)
	}
	if !m.Done() {
		panic(fmt.Sprintf("experiments: micro(%s, %d cores, %d pages) did not finish", policy, cores, pages))
	}
	return microResult{
		MunmapNS:    float64(k.Metrics.Hist("munmap.latency").Mean()),
		ShootdownNS: float64(k.Metrics.Hist("munmap.shootdown").Mean()),
	}
}

// apacheResult is one web-server measurement.
type apacheResult struct {
	ReqPerSec       float64
	ShootdownPerSec float64
	Kernel          *kernel.Kernel
	Duration        sim.Time
}

// runApache executes the Fig 9 server benchmark for the given worker core
// count.
func runApache(policy string, cores int, dur sim.Time, o Options) apacheResult {
	k := newKernel(topo.TwoSocket16(), policy, o)
	a := workload.NewApache(workload.DefaultApacheConfig(coresN(cores)))
	a.Setup(k)
	k.Run(dur)
	secs := dur.Seconds()
	return apacheResult{
		ReqPerSec:       float64(a.Requests()) / secs,
		ShootdownPerSec: float64(k.Metrics.Counter("shootdown.initiated")) / secs,
		Kernel:          k,
		Duration:        dur,
	}
}

// runNginx executes the Fig 12 nginx case.
func runNginx(policy string, cores int, dur sim.Time, o Options) apacheResult {
	k := newKernel(topo.TwoSocket16(), policy, o)
	n := workload.NewNginx(coresN(cores))
	n.Setup(k)
	k.Run(dur)
	secs := dur.Seconds()
	return apacheResult{
		ReqPerSec:       float64(n.Requests()) / secs,
		ShootdownPerSec: float64(k.Metrics.Counter("shootdown.initiated")) / secs,
		Kernel:          k,
		Duration:        dur,
	}
}

// parsecResult is one fixed-work benchmark measurement.
type parsecResult struct {
	Runtime         sim.Time
	ShootdownPerSec float64
	Kernel          *kernel.Kernel
}

// runParsec executes one PARSEC profile to completion.
func runParsec(policy string, prof workload.ParsecProfile, cores int, o Options) parsecResult {
	if o.Quick {
		prof.TotalOps /= 10
	}
	k := newKernel(topo.TwoSocket16(), policy, o)
	w := workload.NewParsec(prof, coresN(cores))
	w.Setup(k)
	limit := 120 * sim.Second
	for k.Now() < limit && !w.Done() {
		k.Run(k.Now() + 100*sim.Millisecond)
	}
	if !w.Done() {
		panic(fmt.Sprintf("experiments: parsec %s under %s did not finish", prof.Name, policy))
	}
	rt := w.FinishTime()
	return parsecResult{
		Runtime:         rt,
		ShootdownPerSec: float64(k.Metrics.Counter("shootdown.initiated")) / rt.Seconds(),
		Kernel:          k,
	}
}

// numaRunnable is the shared surface of the Fig 11 workloads.
type numaRunnable interface {
	workload.Workload
	FinishTime() sim.Time
}

// numaResult is one Fig 11 measurement.
type numaResult struct {
	Runtime          sim.Time
	MigrationsPerSec float64
	Kernel           *kernel.Kernel
}

// runWithNUMA executes w on k with AutoNUMA balancing enabled.
func runWithNUMA(k *kernel.Kernel, w numaRunnable) numaResult {
	an := numa.New(numa.Config{
		ScanPeriod:   2 * sim.Millisecond,
		PagesPerScan: 1024,
	})
	an.Install(k)
	w.Setup(k)
	for _, p := range k.Processes() {
		an.Register(p)
	}
	limit := 120 * sim.Second
	for k.Now() < limit && !w.Done() {
		k.Run(k.Now() + 50*sim.Millisecond)
	}
	if !w.Done() {
		panic(fmt.Sprintf("experiments: NUMA workload under %s did not finish", k.Policy().Name()))
	}
	rt := w.FinishTime()
	return numaResult{
		Runtime:          rt,
		MigrationsPerSec: float64(k.Metrics.Counter("numa.migrations")) / rt.Seconds(),
		Kernel:           k,
	}
}

// llcActivity extracts the Table 4 pollution inputs from a finished run.
func llcActivity(k *kernel.Kernel, dur sim.Time) cache.Activity {
	return cache.Activity{
		Duration:   dur,
		IPIHandled: k.Metrics.Counter("ipi.handled"),
		Sweeps:     k.Metrics.Counter("latr.sweeps_with_work"),
	}
}
