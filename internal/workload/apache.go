package workload

import (
	"latr/internal/kernel"
	"latr/internal/metrics"
	"latr/internal/sim"
	"latr/internal/topo"
)

// ApacheConfig models the §6.2.2 web-server experiment: Apache's
// mpm_event module serving a static 10 KB page, where every request
// mmap()s the file, serves it, and munmap()s it — the munmap of a
// (potentially) shared file mapping is what generates the TLB shootdown
// storm of Fig 9.
type ApacheConfig struct {
	// Cores the workers run on (wrk clients are modelled as closed-loop
	// demand, not simulated threads, mirroring the paper's separate-core
	// setup).
	Cores []topo.CoreID
	// Processes is the number of mpm_event worker processes; each spawns
	// one worker thread per core. Threads of the same process share an mm,
	// so a munmap must shoot down all cores running that process.
	Processes int
	// ParseWork, ServeWork, NetWork are the per-request CPU segments
	// around the mmap/serve/munmap core.
	ParseWork, ServeWork, NetWork sim.Time
}

// DefaultApacheConfig returns the Fig 9 configuration for the given
// worker cores.
func DefaultApacheConfig(cores []topo.CoreID) ApacheConfig {
	return ApacheConfig{
		Cores:     cores,
		Processes: 3,
		ParseWork: 6 * sim.Microsecond,
		ServeWork: 19 * sim.Microsecond,
		NetWork:   9 * sim.Microsecond,
	}
}

// apacheFilePages is the served file's size in pages: the 10 KB page
// of §6.2.2.
const apacheFilePages = 3

// Apache is the workload instance.
type Apache struct {
	cfg      ApacheConfig
	k        *kernel.Kernel
	requests uint64
	met      struct{ requests metrics.Counter }
}

// NewApache returns an Apache workload.
func NewApache(cfg ApacheConfig) *Apache {
	if len(cfg.Cores) == 0 || cfg.Processes < 1 {
		panic("workload: invalid apache config")
	}
	return &Apache{cfg: cfg}
}

// Setup spawns Processes × len(Cores) worker threads, each running the
// closed request loop.
func (a *Apache) Setup(k *kernel.Kernel) {
	a.k = k
	a.met.requests = k.Metrics.NewCounter("app.requests")
	for p := 0; p < a.cfg.Processes; p++ {
		proc := k.NewProcess()
		for _, c := range a.cfg.Cores {
			a.spawnWorker(proc, c)
		}
	}
}

func (a *Apache) spawnWorker(proc *kernel.Process, core topo.CoreID) {
	cfg := a.cfg
	step := 0
	proc.Spawn(core, kernel.Loop(func(th *kernel.Thread) kernel.Op {
		switch step {
		case 0: // accept + parse
			step = 1
			return kernel.Compute(cfg.ParseWork)
		case 1: // mmap the file (demand-paged, as Apache's mmap is)
			step = 2
			return kernel.Mmap(apacheFilePages, false)
		case 2: // read the mapped file while building the response; the
			// first touches fault and take mmap_sem shared — which is
			// where a sibling's munmap-held shootdown wait hurts
			step = 3
			if th.LastErr != nil {
				// OOM and similar: skip to accounting, no touch.
				return kernel.Compute(cfg.ServeWork)
			}
			return kernel.TouchRange(th.LastAddr, apacheFilePages, false)
		case 3: // response assembly + syscalls
			step = 4
			return kernel.Compute(cfg.ServeWork)
		case 4: // munmap → the shootdown under test
			step = 5
			return kernel.Munmap(th.LastAddr, apacheFilePages)
		case 5: // network send, then next request
			step = 0
			a.requests++
			a.met.requests.Inc()
			return kernel.Compute(cfg.NetWork)
		default:
			panic("unreachable")
		}
	}))
}

// Requests reports completed requests.
func (a *Apache) Requests() uint64 { return a.requests }

// Done always reports false: Apache runs until the experiment deadline.
func (a *Apache) Done() bool { return false }

// The Fig 12 nginx_1 case: an event-driven server that serves from a
// static in-memory cache (sendfile) and thus triggers almost no TLB
// shootdowns; only the log buffer, recycled every nginxLogRecycleEvery
// requests, frees memory.
const (
	nginxRequestWork     = 45 * sim.Microsecond
	nginxLogRecycleEvery = 2000
	nginxLogPages        = 16
)

// Nginx is the low-shootdown server workload.
type Nginx struct {
	cores    []topo.CoreID
	k        *kernel.Kernel
	requests uint64
	met      struct{ requests metrics.Counter }
}

// NewNginx returns an Nginx workload with one event-loop thread on each
// of cores.
func NewNginx(cores []topo.CoreID) *Nginx {
	if len(cores) == 0 {
		panic("workload: nginx needs at least one core")
	}
	return &Nginx{cores: cores}
}

// Setup spawns one event-loop thread per core in a single process.
func (n *Nginx) Setup(k *kernel.Kernel) {
	n.k = k
	n.met.requests = k.Metrics.NewCounter("app.requests")
	proc := k.NewProcess()
	for _, c := range n.cores {
		served := 0
		step := 0
		proc.Spawn(c, kernel.Loop(func(th *kernel.Thread) kernel.Op {
			switch step {
			case 0:
				served++
				n.requests++
				n.met.requests.Inc()
				if served%nginxLogRecycleEvery == 0 {
					step = 1
				}
				return kernel.Compute(nginxRequestWork)
			case 1:
				step = 2
				return kernel.Mmap(nginxLogPages, true).Populate(-1)
			case 2:
				step = 0
				return kernel.Munmap(th.LastAddr, nginxLogPages)
			default:
				panic("unreachable")
			}
		}))
	}
}

// Requests reports completed requests.
func (n *Nginx) Requests() uint64 { return n.requests }

// Done always reports false: Nginx runs until the experiment deadline.
func (n *Nginx) Done() bool { return false }
