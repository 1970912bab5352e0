// Package cluster is the multi-machine layer: N simulated machines — each
// a full kernel+workload instance from the existing stack — share one
// event engine behind a front-end that routes and retries requests. The
// cluster question is the paper's tail-latency question at fleet scale:
// every node runs the same memcached-shaped KV service whose cold keys
// major-fault through the swap/remote-memory path, so the per-node
// coherence policy (linux/abis/latr) sets the per-attempt tail, and the
// front-end's robustness pipeline — deadline, timeout, bounded retries
// with exponential backoff and deterministic jitter, optional hedging,
// health-aware routing — decides how much of that tail millions of users
// actually see, especially once the chaos cluster fault family (node
// crash/restart, slow nodes, partition windows, queue-overflow shedding)
// makes the fleet unreliable.
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
	"latr/internal/metrics"
	"latr/internal/obs"
	"latr/internal/shootdown"
	"latr/internal/sim"
	"latr/internal/topo"
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
	// maxArrivalRate bounds Config.ArrivalRate: above one arrival per
	// nanosecond the mean gap truncates to 0 and arrivals never advance
	// the clock.
	maxArrivalRate = int64(sim.Second)
	// warmLimit caps the warm-up phase; a cluster that cannot load its
	// arenas by then is misconfigured.
	warmLimit = 2 * sim.Second
)

// The KV service and front-end shape every run shares.
const (
	// Every node serves the memcached case study's mix, the
	// workload.Memcached* constants, except that its hot prefix is
	// hotKeys keys. The arena exceeds local memory, so cold keys fault
	// through the remote-memory swap path.
	hotKeys = 400

	// workersPerNode server threads run on each node, and
	// memFramesPerNode shrinks each NUMA node's memory so the arena
	// cannot fit locally.
	workersPerNode   = 4
	memFramesPerNode = 900

	// requestTimeout bounds one attempt and requestDeadline the whole
	// request. retryBudget is the attempt budget per request, first try
	// included; the backoff before a retry starts at backoffBase and
	// doubles per attempt up to backoffCap, plus deterministic jitter in
	// [0, backoff/4].
	requestTimeout  = 2 * sim.Millisecond
	requestDeadline = 20 * sim.Millisecond
	retryBudget     = 3
	backoffBase     = 200 * sim.Microsecond
	backoffCap      = 5 * sim.Millisecond

	// queueDepth bounds each node's pending-request queue; overflow is
	// shed back to the front-end. A fault profile's QueueDepth overrides
	// it.
	queueDepth = 64

	// sloHot and sloCold are the per-class latency targets completions
	// are scored against.
	sloHot  = sim.Millisecond
	sloCold = 5 * sim.Millisecond
)

// Config tunes one cluster run. The zero value of every field means "use
// the default" (mirroring swap.Config); negative values and impossible
// combinations are rejected by Validate. Every node runs the coherence
// auditor, and Result.Violations counts what it found.
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

	// ArrivalRate is the offered load in requests/second, Poisson
	// arrivals (default 150000, at most one per nanosecond).
	ArrivalRate int64
	// HedgeDelay, when > 0, dispatches one hedged duplicate to a second
	// node if the first attempt has not replied after this long (0: off).
	HedgeDelay sim.Time

	// Duration is the measured traffic window after warm-up (default 100ms).
	Duration sim.Time
}

// DefaultConfig returns the default cluster shape.
func DefaultConfig() Config {
	return Config{
		Nodes:       3,
		Machine:     "2x4",
		Policy:      "latr",
		Router:      "round-robin",
		ArrivalRate: 150000,
		Duration:    100 * sim.Millisecond,
	}
}

// Validate rejects configurations that could never have been intended,
// mirroring swap.Config.Validate: zero fields mean "default" and are
// legal; negative fields, an arrival rate the clock cannot space out and
// a machine with too few cores for workersPerNode are errors.
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
	if c.ArrivalRate < 0 {
		return fmt.Errorf("cluster: ArrivalRate %d is negative", c.ArrivalRate)
	}
	if c.ArrivalRate > maxArrivalRate {
		return fmt.Errorf("cluster: ArrivalRate %d exceeds the maximum %d (one arrival per nanosecond)",
			c.ArrivalRate, maxArrivalRate)
	}
	if c.HedgeDelay < 0 {
		return fmt.Errorf("cluster: HedgeDelay %v is negative", c.HedgeDelay)
	}
	if c.Duration < 0 {
		return fmt.Errorf("cluster: Duration %v is negative", c.Duration)
	}
	// The machine is checked after defaults, so a small machine fails
	// whether it was named or defaulted.
	machine := c.withDefaults().Machine
	spec, err := topo.ByName(machine)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if _, err := spec.SpreadCores(workersPerNode); err != nil {
		return fmt.Errorf("cluster: machine %q is too small for %d workers per node (core 0 is the swapper's): %w",
			machine, workersPerNode, err)
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
	if c.ArrivalRate == 0 {
		c.ArrivalRate = d.ArrivalRate
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
	spans  *obs.Collector
	rng    *sim.Rand // arrivals, key mix, backoff jitter
	router router
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
	c.spans = obs.NewCollector("cluster", c.met, 0, 0)
	c.queueDepth = queueDepth
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
// Offered = Completed + Failed holds exactly: every request finishes
// exactly once, however many attempts it took.
type Result struct {
	Policy, Router, Profile string

	Offered   uint64 // requests that arrived at the front-end
	Completed uint64 // finished successfully (counted once each)
	Failed    uint64 // gave up: deadline, retries exhausted, unroutable

	Attempts uint64 // node dispatches, hedges and retries included
	Retries  uint64 // re-dispatches after a failed/timed-out attempt
	Hedges   uint64 // hedged duplicate dispatches
	Timeouts uint64 // attempts that hit requestTimeout
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
// for cfg.Duration, then drain until every request has resolved.
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
	// until the last request resolves. The request deadline bounds this
	// at one requestDeadline past the traffic window.
	drainLimit := c.trafficEnd + requestDeadline + 10*sim.Millisecond
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

// NumNodes reports the fleet size.
func (c *Cluster) NumNodes() int { return len(c.nodes) }
