package cluster

import (
	"latr/internal/cost"
	"latr/internal/kernel"
	"latr/internal/pt"
	"latr/internal/remote"
	"latr/internal/shootdown"
	"latr/internal/sim"
	"latr/internal/swap"
	"latr/internal/topo"
	"latr/internal/workload"
)

// Span lanes: the front-end is lane 0, node i is lane 1+i, so a request
// span's phase events name the node that ran each attempt.
const frontLane topo.CoreID = 0

func nodeLane(i int) topo.CoreID { return topo.CoreID(1 + i) }

// node is one simulated machine: a full kernel (cores, TLBs, coherence
// policy) with a swapper paging to a remote-memory backend, serving a
// memcached-shaped KV arena through a pull queue of worker threads.
//
// A crash is modelled as crash-with-fast-restart: the connection state
// dies — the queue resets, in-service attempts become orphans via the
// epoch counter, the remote frame pool fails over to disk — while the
// kernel object itself keeps ticking, standing in for the rebooted
// instance that remounts the same arena. The front-end sees exactly what
// it would over a real wire: resets, then refused connections, then a
// recovered node whose cold keys got colder.
type node struct {
	id      int
	cl      *Cluster
	k       *kernel.Kernel
	backend *remote.Backend
	swapper *swap.Swapper
	proc    *kernel.Process
	arena   *workload.Arena

	// Pull queue: enqueue wakes one idle worker; workers block when empty.
	queue    []*attempt
	idle     []*kernel.Thread
	inflight int // attempts dequeued and in service

	// Fault condition flags, node-side: applied by the precomputed fault
	// schedule at absolute times, read only by the node's own code. The
	// front-end's routing view is the peerView mirror, fed by the same
	// schedule — never these fields.
	epoch      uint64 // bumped per crash; stale-epoch completions are orphans
	crashed    bool
	slowUntil  sim.Time
	slowFactor int // percent, active while now < slowUntil
	partUntil  sim.Time

	met nodeMetrics
}

// newNode builds node id on the cluster's engine and spawns its loader
// and worker threads. Nothing runs until Cluster.Run drives the engine.
func newNode(c *Cluster, id int) *node {
	cfg := c.cfg
	spec, err := topo.ByName(cfg.Machine)
	if err != nil {
		panic(err)
	}
	spec.MemPerNodeBytes = cfg.MemFramesPerNode * 4096
	pol, err := shootdown.ByName(cfg.Policy)
	if err != nil {
		panic(err)
	}
	k := kernel.New(spec, cost.Default(spec), pol, kernel.Options{
		Seed:   cfg.Seed ^ (uint64(id+1) * 0x9e3779b97f4a7c15),
		Engine: c.eng,
		Audit:  true,
	})
	n := &node{id: id, cl: c, k: k, met: newNodeMetrics(k.Metrics)}

	// Watermarks scale with the shrunken per-node memory so the swapper
	// keeps pressure on while the hot set stays resident.
	n.backend = remote.New(remote.Config{})
	n.swapper = swap.NewWithBackend(swap.Config{
		LowWatermarkFrames:  cfg.MemFramesPerNode / 5,
		HighWatermarkFrames: cfg.MemFramesPerNode / 3,
		ScanPeriod:          sim.Millisecond,
		BatchPages:          256,
	}, n.backend)
	n.swapper.Install(k)

	gate := workload.NewGate(k)
	n.proc = k.NewProcess()
	cores, err := spec.SpreadCores(cfg.WorkersPerNode)
	if err != nil {
		panic(err)
	}
	n.arena = workload.LoadArena(n.proc, cores[0], cfg.Keys*cfg.ValuePages, gate)
	for _, core := range cores {
		n.spawnWorker(core, gate)
	}
	n.swapper.Register(n.proc)
	return n
}

// spawnWorker starts one server thread: dequeue (or block), think, touch
// the value pages — hot keys TLB-hit, cold keys major-fault through the
// swap/remote path — think again, reply. Service time stretches by the
// slow-node factor while a slow window is open.
func (n *node) spawnWorker(core topo.CoreID, gate *workload.Gate) {
	cl := n.cl
	const (
		stepGate = iota
		stepDequeue
		stepThink1
		stepTouch
		stepThink2
		stepReply
	)
	step := stepGate
	var cur *attempt
	n.proc.Spawn(core, kernel.Loop(func(th *kernel.Thread) kernel.Op {
		switch step {
		case stepGate:
			step = stepDequeue
			return gate.Wait()
		case stepDequeue:
			return kernel.Call(func(c *kernel.Core, th *kernel.Thread, done func()) {
				if len(n.queue) > 0 {
					cur = n.queue[0]
					n.queue = n.queue[1:]
					n.inflight++
					step = stepThink1
					done()
					return
				}
				n.idle = append(n.idle, th)
				c.Block(th, done)
			})
		case stepThink1:
			step = stepTouch
			return kernel.Compute(n.scale(cl.cfg.Think / 2))
		case stepTouch:
			step = stepThink2
			return kernel.TouchRange(n.arena.Base+pt.VPN(cur.req.key*cl.cfg.ValuePages), cl.cfg.ValuePages, cur.req.write)
		case stepThink2:
			step = stepReply
			return kernel.Compute(n.scale(cl.cfg.Think - cl.cfg.Think/2))
		case stepReply:
			step = stepDequeue
			at := cur
			cur = nil
			return kernel.Call(func(c *kernel.Core, th *kernel.Thread, done func()) {
				n.finish(at, c.Kernel().Now())
				done()
			})
		}
		panic("cluster: worker in impossible step")
	}))
}

// scale stretches a service-time slice by the active slow-node factor.
func (n *node) scale(d sim.Time) sim.Time {
	if n.k.Now() < n.slowUntil && n.slowFactor > 100 {
		return d * sim.Time(n.slowFactor) / 100
	}
	return d
}

// enqueue admits one attempt to the node's queue, waking an idle worker.
// It reports false when the queue is at the shed bound.
func (n *node) enqueue(at *attempt) bool {
	if len(n.queue) >= n.cl.queueDepth {
		return false
	}
	n.queue = append(n.queue, at)
	if len(n.idle) > 0 {
		th := n.idle[0]
		n.idle = n.idle[1:]
		n.k.Wake(th)
	}
	return true
}

// sendFront sends fn to the front-end over the wire — the only way
// node-side code ever reaches front-end state.
func (n *node) sendFront(fn func(now sim.Time)) {
	n.cl.wire.send(1+n.id, fn)
}

// finish is the node-side end of one serviced attempt: suppress the reply
// if the connection epoch died (crash) or the partition eats it,
// otherwise deliver it to the front-end after the wire delay. Suppressed
// outcomes count in the node's own registry, not the front-end's.
func (n *node) finish(at *attempt, now sim.Time) {
	n.inflight--
	n.met.served.Inc()
	cl := n.cl
	if at.epoch != n.epoch {
		n.met.orphans.Inc()
		return
	}
	if now < n.partUntil {
		n.met.partDropped.Inc()
		return
	}
	n.sendFront(func(now sim.Time) { cl.attemptDone(at, now) })
}
