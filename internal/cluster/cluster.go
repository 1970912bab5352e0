// Package cluster is the multi-machine layer: N simulated machines — each
// a full kernel+workload instance from the existing stack — share one
// event engine behind a front-end that routes, admits and retries
// requests. The cluster question is the paper's tail-latency question at
// fleet scale: every node runs the same memcached-shaped KV service whose
// cold keys major-fault through the swap/remote-memory path, so the
// per-node coherence policy (linux/abis/latr) sets the per-attempt tail,
// and the front-end's robustness pipeline — deadline, timeout, bounded
// retries with exponential backoff and deterministic jitter, optional
// hedging, health-aware routing, token-bucket admission — decides how
// much of that tail millions of users actually see, especially once the
// chaos cluster fault family (node crash/restart, slow nodes, partition
// windows, queue-overflow shedding) makes the fleet unreliable.
//
// The front-end and every node run on one sim.Engine. Every front↔node
// interaction crosses the wire (wire.go) as a message that takes netDelay
// and is delivered at a window barrier; the front-end never reads node
// state directly (it routes on a per-node mirror fed by the fault
// schedule and its own attempt accounting), and the fault schedule is
// drawn up front and applied to both sides at the same virtual instants.
// A cluster run is byte-deterministic per seed. The experiment layer fans
// isolated (policy × router × fault profile) cells across internal/fan
// workers without changing any byte of output.
package cluster

import (
	"fmt"
	"hash/fnv"

	"latr/internal/chaos"
	"latr/internal/kernel"
	"latr/internal/metrics"
	"latr/internal/obs"
	"latr/internal/shootdown"
	"latr/internal/sim"
	"latr/internal/topo"
	"latr/internal/trace"
)

// Fixed model constants. These are part of the cluster model, not tuning
// knobs: the wire time is one-sided front-end↔node delay, the probe loop
// is how a suspected (partitioned) node is re-detected, and the recovery
// window is how long a restarted node reports Recovering.
const (
	netDelay       = 5 * sim.Microsecond
	probePeriod    = 2 * sim.Millisecond
	recoveryWindow = 5 * sim.Millisecond
	// suspectAfter consecutive attempt timeouts mark a node suspected
	// (Down for routing) until a probe gets through.
	suspectAfter = 3
	// maxNodes bounds Config.Nodes; beyond this the shared-clock model
	// stops being a simulation and starts being a space heater.
	maxNodes = 64
	// warmLimit caps the warm-up phase; a cluster that cannot load its
	// arenas by then is misconfigured.
	warmLimit = 2 * sim.Second
)

// Config tunes one cluster run. The zero value of every field means "use
// the default" (mirroring swap.Config); negative values and impossible
// combinations are rejected by Validate.
type Config struct {
	// Nodes is the number of simulated machines (default 3, max 64).
	Nodes int
	// Machine is the per-node topology shape, as topo.ByName reads it:
	// "2x8" and "8x15" are the paper's machines, any other "NxM" is N
	// sockets of M cores (default "2x4").
	Machine string
	// Policy is the per-node TLB-coherence policy, any shootdown.Names
	// entry (default "latr").
	Policy string
	// Router selects the routing policy: round-robin, least-loaded or
	// affinity (default "round-robin").
	Router string
	// Profile is the cluster fault schedule (zero value: fault-free).
	Profile chaos.ClusterProfile
	// Seed drives every random stream in the run.
	Seed uint64

	// KV service shape, shared by every node (the memcached case-study
	// mix: a hot prefix takes most traffic, cold keys fault through the
	// remote-memory swap path).
	Keys          int      // keyspace size (default 4096: the arena exceeds local memory)
	ValuePages    int      // pages per value (default 1)
	HotKeys       int      // popular prefix size (default 400)
	HotTrafficPct int      // percent of requests on the hot prefix (default 90)
	SetPct        int      // percent of requests that write (default 10)
	Think         sim.Time // per-request CPU cost on the node (default 10µs)
	// WorkersPerNode is the number of server threads per node (default 4).
	WorkersPerNode int
	// MemFramesPerNode shrinks each NUMA node's memory so the arena
	// cannot fit locally and cold keys page remotely (default 900).
	MemFramesPerNode int64

	// ArrivalRate is the offered load in requests/second, Poisson
	// arrivals (default 150000).
	ArrivalRate int64
	// RateLimit is the admission token-bucket refill rate in tokens/second;
	// 0 leaves admission unlimited. Burst is the bucket depth (default 64
	// when RateLimit is set).
	RateLimit int64
	Burst     int64

	// RequestTimeout is the per-attempt timeout (default 2ms);
	// RequestDeadline the end-to-end budget per request (default 20ms).
	RequestTimeout  sim.Time
	RequestDeadline sim.Time
	// RetryBudget is the total attempt budget per request, first try
	// included (default 3; set 1 to disable retries).
	RetryBudget int
	// BackoffBase doubles per retry up to BackoffCap, plus deterministic
	// jitter in [0, backoff/4] (defaults 200µs / 5ms).
	BackoffBase sim.Time
	BackoffCap  sim.Time
	// HedgeDelay, when > 0, dispatches one hedged duplicate to a second
	// node if the first attempt has not replied after this long (0: off).
	HedgeDelay sim.Time
	// QueueDepth bounds each node's pending-request queue; overflow is
	// shed back to the front-end (default 64). Profile.QueueDepth
	// overrides it when set.
	QueueDepth int

	// SLOHot / SLOCold are the per-class latency targets the accounting
	// scores completions against (defaults 1ms / 5ms).
	SLOHot  sim.Time
	SLOCold sim.Time

	// Duration is the measured traffic window after warm-up (default 100ms).
	Duration sim.Time

	// TraceLimit/SpanLimit bound the front-end request trace and retained
	// request spans. Every node runs the coherence auditor, and
	// Result.Violations counts what it found.
	TraceLimit int
	SpanLimit  int
}

// DefaultConfig returns the default cluster shape.
func DefaultConfig() Config {
	return Config{
		Nodes:            3,
		Machine:          "2x4",
		Policy:           "latr",
		Router:           "round-robin",
		Keys:             4096,
		ValuePages:       1,
		HotKeys:          400,
		HotTrafficPct:    90,
		SetPct:           10,
		Think:            10 * sim.Microsecond,
		WorkersPerNode:   4,
		MemFramesPerNode: 900,
		ArrivalRate:      150000,
		Burst:            64,
		RequestTimeout:   2 * sim.Millisecond,
		RequestDeadline:  20 * sim.Millisecond,
		RetryBudget:      3,
		BackoffBase:      200 * sim.Microsecond,
		BackoffCap:       5 * sim.Millisecond,
		QueueDepth:       64,
		SLOHot:           sim.Millisecond,
		SLOCold:          5 * sim.Millisecond,
		Duration:         100 * sim.Millisecond,
	}
}

// Validate rejects configurations that could never have been intended,
// mirroring swap.Config.Validate: zero fields mean "default" and are
// legal; negative fields, inverted pairs and a machine with too few cores
// for WorkersPerNode are errors.
func (c Config) Validate() error {
	if c.Nodes < 0 {
		return fmt.Errorf("cluster: Nodes %d is negative", c.Nodes)
	}
	if c.Nodes > maxNodes {
		return fmt.Errorf("cluster: Nodes %d exceeds the maximum %d", c.Nodes, maxNodes)
	}
	if c.Policy != "" {
		if _, err := shootdown.ByName(c.Policy); err != nil {
			return err
		}
	}
	if c.Router != "" {
		if !knownRouter(c.Router) {
			return fmt.Errorf("cluster: unknown router %q (have %v)", c.Router, RouterNames())
		}
	}
	if c.Keys < 0 {
		return fmt.Errorf("cluster: Keys %d is negative", c.Keys)
	}
	if c.ValuePages < 0 {
		return fmt.Errorf("cluster: ValuePages %d is negative", c.ValuePages)
	}
	if c.HotKeys < 0 {
		return fmt.Errorf("cluster: HotKeys %d is negative", c.HotKeys)
	}
	if c.Keys > 0 && c.HotKeys > c.Keys {
		return fmt.Errorf("cluster: HotKeys %d exceeds Keys %d", c.HotKeys, c.Keys)
	}
	if c.HotTrafficPct < 0 || c.HotTrafficPct > 100 {
		return fmt.Errorf("cluster: HotTrafficPct %d outside [0,100]", c.HotTrafficPct)
	}
	if c.SetPct < 0 || c.SetPct > 100 {
		return fmt.Errorf("cluster: SetPct %d outside [0,100]", c.SetPct)
	}
	if c.Think < 0 {
		return fmt.Errorf("cluster: Think %v is negative", c.Think)
	}
	if c.WorkersPerNode < 0 {
		return fmt.Errorf("cluster: WorkersPerNode %d is negative", c.WorkersPerNode)
	}
	if c.MemFramesPerNode < 0 {
		return fmt.Errorf("cluster: MemFramesPerNode %d is negative", c.MemFramesPerNode)
	}
	if c.ArrivalRate < 0 {
		return fmt.Errorf("cluster: ArrivalRate %d is negative", c.ArrivalRate)
	}
	if c.RateLimit < 0 {
		return fmt.Errorf("cluster: RateLimit %d is negative", c.RateLimit)
	}
	if c.Burst < 0 {
		return fmt.Errorf("cluster: Burst %d is negative", c.Burst)
	}
	if c.RequestTimeout < 0 {
		return fmt.Errorf("cluster: RequestTimeout %v is negative", c.RequestTimeout)
	}
	if c.RequestDeadline < 0 {
		return fmt.Errorf("cluster: RequestDeadline %v is negative", c.RequestDeadline)
	}
	if c.RequestTimeout > 0 && c.RequestDeadline > 0 && c.RequestDeadline < c.RequestTimeout {
		return fmt.Errorf("cluster: RequestDeadline %v shorter than RequestTimeout %v",
			c.RequestDeadline, c.RequestTimeout)
	}
	if c.RetryBudget < 0 {
		return fmt.Errorf("cluster: RetryBudget %d is negative", c.RetryBudget)
	}
	if c.RetryBudget > 16 {
		return fmt.Errorf("cluster: RetryBudget %d exceeds the maximum 16", c.RetryBudget)
	}
	if c.BackoffBase < 0 {
		return fmt.Errorf("cluster: BackoffBase %v is negative", c.BackoffBase)
	}
	if c.BackoffCap < 0 {
		return fmt.Errorf("cluster: BackoffCap %v is negative", c.BackoffCap)
	}
	if c.BackoffBase > 0 && c.BackoffCap > 0 && c.BackoffCap < c.BackoffBase {
		return fmt.Errorf("cluster: BackoffCap %v shorter than BackoffBase %v",
			c.BackoffCap, c.BackoffBase)
	}
	if c.HedgeDelay < 0 {
		return fmt.Errorf("cluster: HedgeDelay %v is negative", c.HedgeDelay)
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("cluster: QueueDepth %d is negative", c.QueueDepth)
	}
	if c.SLOHot < 0 {
		return fmt.Errorf("cluster: SLOHot %v is negative", c.SLOHot)
	}
	if c.SLOCold < 0 {
		return fmt.Errorf("cluster: SLOCold %v is negative", c.SLOCold)
	}
	if c.Duration < 0 {
		return fmt.Errorf("cluster: Duration %v is negative", c.Duration)
	}
	// The machine is checked after defaults, together with the worker
	// count, so a small machine fails against the default WorkersPerNode.
	d := c.withDefaults()
	spec, err := topo.ByName(d.Machine)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if _, err := spec.SpreadCores(d.WorkersPerNode); err != nil {
		return fmt.Errorf("cluster: machine %q is too small for WorkersPerNode %d (core 0 is the swapper's): %w",
			d.Machine, d.WorkersPerNode, err)
	}
	return nil
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Nodes == 0 {
		c.Nodes = d.Nodes
	}
	if c.Machine == "" {
		c.Machine = d.Machine
	}
	if c.Policy == "" {
		c.Policy = d.Policy
	}
	if c.Router == "" {
		c.Router = d.Router
	}
	if c.Keys == 0 {
		c.Keys = d.Keys
	}
	if c.ValuePages == 0 {
		c.ValuePages = d.ValuePages
	}
	if c.HotKeys == 0 {
		c.HotKeys = d.HotKeys
	}
	if c.HotKeys > c.Keys {
		c.HotKeys = c.Keys
	}
	if c.HotTrafficPct == 0 {
		c.HotTrafficPct = d.HotTrafficPct
	}
	if c.SetPct == 0 {
		c.SetPct = d.SetPct
	}
	if c.Think == 0 {
		c.Think = d.Think
	}
	if c.WorkersPerNode == 0 {
		c.WorkersPerNode = d.WorkersPerNode
	}
	if c.MemFramesPerNode == 0 {
		c.MemFramesPerNode = d.MemFramesPerNode
	}
	if c.ArrivalRate == 0 {
		c.ArrivalRate = d.ArrivalRate
	}
	if c.Burst == 0 {
		c.Burst = d.Burst
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = d.RequestTimeout
	}
	if c.RequestDeadline == 0 {
		c.RequestDeadline = d.RequestDeadline
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = d.RetryBudget
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = d.BackoffBase
	}
	if c.BackoffCap == 0 {
		c.BackoffCap = d.BackoffCap
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.SLOHot == 0 {
		c.SLOHot = d.SLOHot
	}
	if c.SLOCold == 0 {
		c.SLOCold = d.SLOCold
	}
	if c.Duration == 0 {
		c.Duration = d.Duration
	}
	return c
}

// Cluster is one assembled fleet. Build with New, run once with Run.
type Cluster struct {
	cfg    Config
	eng    *sim.Engine // the one engine every node and the front-end run on
	wire   wire
	met    *metrics.Registry
	m      frontMetrics
	tracer *trace.Tracer
	spans  *obs.Collector
	rng    *sim.Rand // arrivals, key mix, backoff jitter
	router router
	bucket *tokenBucket
	nodes  []*node
	// peers is the front-end's mirror of each node — health flags derived
	// from the scheduled fault windows plus the front's own attempt
	// accounting. Routing and probing consult ONLY this view, never the
	// node itself: the front-end knows a node only through the wire and
	// the fault schedule.
	peers []*peerView

	queueDepth  int
	nextReqID   uint64
	outstanding int
	trafficEnd  sim.Time
	ran         bool
}

// New assembles a cluster: the engine, the wire, N kernels and the
// front-end. It panics on a Validate error, like swap.New.
func New(cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg: cfg,
		eng: sim.NewEngine(),
		met: metrics.NewRegistry(),
		rng: sim.NewRand(cfg.Seed ^ 0xc1057e2f3a4b5c6d),
	}
	c.m = newFrontMetrics(c.met)
	c.wire.eng = c.eng
	if cfg.TraceLimit > 0 {
		c.tracer = trace.New(cfg.TraceLimit)
	}
	c.spans = obs.NewCollector("cluster", c.met, c.tracer, cfg.SpanLimit)
	c.bucket = newTokenBucket(cfg.RateLimit, cfg.Burst)
	c.queueDepth = cfg.QueueDepth
	if cfg.Profile.QueueDepth > 0 {
		c.queueDepth = cfg.Profile.QueueDepth
	}
	for i := 0; i < cfg.Nodes; i++ {
		c.nodes = append(c.nodes, newNode(c, i))
		c.peers = append(c.peers, &peerView{cl: c, id: i})
	}
	c.router = newRouter(cfg.Router, c)
	return c
}

// Result is the outcome of one cluster run. The request-count identity
// Offered = Admitted + Rejected and Admitted = Completed + Failed holds
// exactly: every admitted request finishes exactly once, however many
// attempts it took.
type Result struct {
	Policy, Router, Profile string

	Offered   uint64 // requests that arrived at the front-end
	Admitted  uint64 // passed admission control
	Rejected  uint64 // shed by the token bucket
	Completed uint64 // finished successfully (counted once each)
	Failed    uint64 // gave up: deadline, retries exhausted, unroutable

	Attempts uint64 // node dispatches, hedges and retries included
	Retries  uint64 // re-dispatches after a failed/timed-out attempt
	Hedges   uint64 // hedged duplicate dispatches
	Timeouts uint64 // attempts that hit RequestTimeout
	Shed     uint64 // attempts dropped by a full node queue
	Refused  uint64 // attempts fast-failed by a crashed node
	Orphans  uint64 // node completions whose epoch or request had expired

	Latency       *metrics.PercentileHist // end-to-end, completed requests only
	GoodputPerSec float64                 // completed requests per second of traffic
	Violations    int                     // distinct coherence-auditor findings, all nodes
	SimTime       sim.Time
	Digest        uint64
}

// Run executes the cluster once: warm every node's arena, open traffic
// for cfg.Duration, then drain until every admitted request has resolved.
func (c *Cluster) Run() Result {
	if c.ran {
		panic("cluster: Run called twice")
	}
	c.ran = true

	for {
		now := c.eng.Now()
		if c.loaded() {
			break
		}
		if now >= warmLimit {
			panic("cluster: warm-up did not finish; arena too large for the machine")
		}
		c.wire.runUntil(now + 5*sim.Millisecond)
	}

	start := c.eng.Now()
	c.trafficEnd = start + c.cfg.Duration
	c.startFaults(start)
	c.scheduleArrival()
	c.wire.runUntil(c.trafficEnd)

	// Drain: the engine never empties (scheduler ticks), so run in chunks
	// until the last admitted request resolves. The request deadline
	// bounds this at one RequestDeadline past the traffic window.
	drainLimit := c.trafficEnd + c.cfg.RequestDeadline + 10*sim.Millisecond
	for c.outstanding > 0 && c.eng.Now() < drainLimit {
		c.wire.runUntil(c.eng.Now() + sim.Millisecond)
	}
	if c.outstanding > 0 {
		panic(fmt.Sprintf("cluster: %d requests still outstanding after drain", c.outstanding))
	}

	return c.result()
}

// loaded reports whether every node finished warming its arena.
func (c *Cluster) loaded() bool {
	for _, n := range c.nodes {
		if !n.arena.Loaded {
			return false
		}
	}
	return true
}

// scheduleArrival chains Poisson arrivals until the traffic window ends.
func (c *Cluster) scheduleArrival() {
	gap := c.rng.Exp(sim.Time(int64(sim.Second) / c.cfg.ArrivalRate))
	c.eng.After(gap, func(now sim.Time) {
		if now >= c.trafficEnd {
			return
		}
		c.arrive(now)
		c.scheduleArrival()
	})
}

// result assembles the Result from the run's metrics.
func (c *Cluster) result() Result {
	r := Result{
		Policy:        c.cfg.Policy,
		Router:        c.cfg.Router,
		Profile:       c.cfg.Profile.String(),
		Offered:       c.met.Counter("cluster.offered"),
		Admitted:      c.met.Counter("cluster.admitted"),
		Rejected:      c.met.Counter("cluster.rejected"),
		Completed:     c.met.Counter("cluster.completed"),
		Failed:        c.met.Counter("cluster.failed"),
		Attempts:      c.met.Counter("cluster.attempts"),
		Retries:       c.met.Counter("cluster.retries"),
		Hedges:        c.met.Counter("cluster.hedges"),
		Timeouts:      c.met.Counter("cluster.timeouts"),
		Shed:          c.met.Counter("cluster.shed"),
		Refused:       c.met.Counter("cluster.refused"),
		Latency:       c.met.Perc("cluster.req_latency"),
		GoodputPerSec: float64(c.met.Counter("cluster.completed")) / c.cfg.Duration.Seconds(),
		SimTime:       c.eng.Now(),
		Digest:        c.Digest(),
	}
	for _, n := range c.nodes {
		// Node-side accounting (orphans, served, partition drops) lives in
		// each node's registry, apart from the front-end's.
		r.Orphans += n.k.Metrics.Counter("cluster.orphans")
		r.Violations += n.k.Audit.Len()
	}
	return r
}

// Digest folds the engine's event history, the front-end metrics and
// every node's metrics into one comparable value. Two runs of the same
// seeded configuration, at any fan worker count, must digest equal.
func (c *Cluster) Digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	w(c.eng.Fingerprint())
	w(c.met.Fingerprint())
	w(c.spans.Digest())
	for _, n := range c.nodes {
		w(n.k.Metrics.Fingerprint())
	}
	return h.Sum64()
}

// Metrics returns the front-end metrics registry.
func (c *Cluster) Metrics() *metrics.Registry { return c.met }

// Spans returns the front-end request-span collector (for Perfetto
// export: lane 0 is the front-end, lane 1+i node i).
func (c *Cluster) Spans() *obs.Collector { return c.spans }

// Tracer returns the front-end request tracer (nil unless TraceLimit set).
func (c *Cluster) Tracer() *trace.Tracer { return c.tracer }

// NodeKernel returns node i's kernel (for tests and span export).
func (c *Cluster) NodeKernel(i int) *kernel.Kernel { return c.nodes[i].k }

// NumNodes reports the fleet size.
func (c *Cluster) NumNodes() int { return len(c.nodes) }
