package cluster

import (
	"latr/internal/metrics"
	"latr/internal/obs"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/workload"
)

// request is one client operation flowing through the front-end
// robustness pipeline: dispatch, timeout, bounded retries with backoff,
// optional hedging, and a request deadline that caps the whole dance. A
// request completes at most once — `done` flips exactly once per
// request, on the first reply or the first terminal failure, so
// throughput counters never double-count a retried request.
type request struct {
	id       uint64
	key      int
	write    bool
	hot      bool
	arrival  sim.Time
	deadline sim.Time
	span     *obs.Span
	attempts int // dispatches tried (includes hedges and unroutable picks)
	inflight int // attempts not yet settled
	hedged   bool
	done     bool
	lastNode int
	dlTimer  sim.Timer
}

// attempt is one copy of a request sent at one node. Settling is
// idempotent: whichever of reply, failure or timeout arrives first wins,
// and late events (a reply racing its own timeout, a crash reset racing
// a timeout) become counted no-ops.
type attempt struct {
	req     *request
	node    int
	idx     int // 1-based attempt number within the request
	hedge   bool
	epoch   uint64 // node connection epoch at delivery
	start   sim.Time
	timer   sim.Timer
	settled bool
}

// arrive is the client tick: draw the key (hot set vs cold tail) and
// operation, open the request span, and dispatch the first attempt.
func (c *Cluster) arrive(now sim.Time) {
	c.m.offered.Inc()
	c.nextReqID++
	req := &request{id: c.nextReqID, arrival: now, lastNode: -1}
	req.hot = c.rng.Intn(100) < workload.MemcachedHotTrafficPct
	if req.hot {
		req.key = c.rng.Intn(hotKeys)
	} else {
		req.key = hotKeys + c.rng.Intn(workload.MemcachedKeys-hotKeys)
	}
	req.write = c.rng.Intn(100) < workload.MemcachedSetPct
	req.span = c.spans.Begin(obs.KindRequest, frontLane, pt.VPN(req.key), workload.MemcachedValuePages, now)
	req.span.Mark(obs.PhaseInitiate, frontLane, now, 0)
	// cluster.admitted always equals cluster.offered, but it is a line of
	// the front-end dump that Digest hashes: dropping it would move every
	// pinned cluster digest.
	c.m.admitted.Inc()
	c.outstanding++
	req.deadline = now + requestDeadline
	req.dlTimer = c.eng.After(requestDeadline, func(now sim.Time) {
		if !req.done {
			c.failRequest(req, &c.m.failedDeadline, now)
		}
	})
	c.dispatch(req, -1, false, now)
}

// dispatch sends one attempt of req at a node chosen by the router,
// excluding the node that just failed it. The span records the pick —
// PhaseSend on the node's lane, lazy-styled for hedges and retries so
// the Perfetto track visually separates first tries from recovery
// traffic. Delivery crosses the wire after netDelay and meets the
// node's condition there: partition windows swallow it silently (the
// attempt timeout is the only witness), a crashed node refuses after a
// round trip, a full queue sheds.
func (c *Cluster) dispatch(req *request, exclude int, hedge bool, now sim.Time) {
	req.attempts++
	nodeID := c.router.Pick(now, req.key, exclude)
	if nodeID < 0 {
		c.m.unroutable.Inc()
		c.retryOrFail(req, exclude, now)
		return
	}
	req.lastNode = nodeID
	req.inflight++
	at := &attempt{req: req, node: nodeID, idx: req.attempts, hedge: hedge, start: now}
	c.m.attempts.Inc()
	c.peers[nodeID].outstanding++
	if hedge || at.idx > 1 {
		req.span.MarkLazy(obs.PhaseSend, nodeLane(nodeID), now, 0)
	} else {
		req.span.Mark(obs.PhaseSend, nodeLane(nodeID), now, 0)
	}
	n := c.nodes[nodeID]
	at.timer = c.eng.After(requestTimeout, func(now sim.Time) { c.attemptTimeout(at, now) })
	// The attempt crosses the wire to the node and meets the node's
	// condition there; fast failures cross back the same way.
	c.wire.send(0, func(now sim.Time) {
		if now < n.partUntil {
			n.met.partDropped.Inc()
			return
		}
		if n.crashed {
			n.sendFront(func(now sim.Time) { c.attemptFailed(at, &c.m.refused, now) })
			return
		}
		at.epoch = n.epoch
		if !n.enqueue(at) {
			n.sendFront(func(now sim.Time) { c.attemptFailed(at, &c.m.shed, now) })
		}
	})
	// Hedge: if the sole first attempt is still unresolved after
	// HedgeDelay, race a second copy at a different node. First reply
	// wins; the hedge consumes one slot of the retry budget.
	if !hedge && at.idx == 1 && c.cfg.HedgeDelay > 0 {
		c.eng.After(c.cfg.HedgeDelay, func(now sim.Time) {
			if req.done || req.hedged || req.attempts != 1 || req.inflight != 1 {
				return
			}
			req.hedged = true
			c.m.hedges.Inc()
			c.dispatch(req, req.lastNode, true, now)
		})
	}
}

// attemptDone receives a node's reply at the front-end. A reply that
// lost the race against its own timeout is counted and dropped; the
// first live reply completes the request, later ones (the hedge's
// sibling) are wasted work.
func (c *Cluster) attemptDone(at *attempt, now sim.Time) {
	c.peers[at.node].consecTimeouts = 0
	if at.settled {
		c.m.lateReplies.Inc()
		return
	}
	at.settled = true
	c.peers[at.node].outstanding--
	c.eng.Cancel(at.timer)
	req := at.req
	req.inflight--
	c.m.attemptLatency.Observe(now - at.start)
	if req.done {
		c.m.hedgeWasted.Inc()
		return
	}
	c.completeRequest(req, now)
}

// attemptFailed settles one attempt with a fast failure, counted in
// reason — cluster.refused (crashed node), cluster.shed (queue overflow),
// cluster.reset (crash killed the queue) — and feeds the request back to
// retryOrFail. Fast failures clear timeout suspicion: the node answered,
// just unhelpfully.
func (c *Cluster) attemptFailed(at *attempt, reason *metrics.Counter, now sim.Time) {
	if at.settled {
		return
	}
	at.settled = true
	c.peers[at.node].outstanding--
	c.eng.Cancel(at.timer)
	req := at.req
	req.inflight--
	reason.Inc()
	c.m.attemptLatency.Observe(now - at.start)
	c.peers[at.node].consecTimeouts = 0
	if req.done {
		return
	}
	req.span.Mark(obs.PhaseInvalidate, nodeLane(at.node), now, 0)
	c.retryOrFail(req, at.node, now)
}

// attemptTimeout fires when an attempt got no answer for requestTimeout
// — the silent-failure path (partition drops, overload). Consecutive
// timeouts at one node accumulate into suspicion, which is how the
// front-end ever learns about a partition.
func (c *Cluster) attemptTimeout(at *attempt, now sim.Time) {
	if at.settled {
		return
	}
	at.settled = true
	c.peers[at.node].outstanding--
	req := at.req
	req.inflight--
	c.m.timeouts.Inc()
	c.m.attemptLatency.Observe(now - at.start)
	pv := c.peers[at.node]
	pv.consecTimeouts++
	if pv.consecTimeouts >= suspectAfter {
		c.suspect(pv, now)
	}
	if req.done {
		return
	}
	req.span.Mark(obs.PhaseInvalidate, nodeLane(at.node), now, 0)
	c.retryOrFail(req, at.node, now)
}

// retryOrFail decides what happens after a failed attempt: wait for a
// still-inflight sibling, give up when the budget or the deadline can't
// cover another round trip, or schedule a retry after exponential
// backoff (base doubled per attempt, capped) with deterministic jitter
// of up to a quarter of the backoff.
func (c *Cluster) retryOrFail(req *request, exclude int, now sim.Time) {
	if req.inflight > 0 {
		return
	}
	if req.attempts >= retryBudget {
		c.failRequest(req, &c.m.failedExhausted, now)
		return
	}
	backoff := backoffBase << uint(req.attempts-1)
	if backoff > backoffCap || backoff <= 0 {
		backoff = backoffCap
	}
	delay := backoff + c.rng.Duration(0, backoff/4)
	if now+delay+2*netDelay >= req.deadline {
		c.failRequest(req, &c.m.failedDeadline, now)
		return
	}
	c.m.retries.Inc()
	c.eng.After(delay, func(now sim.Time) {
		if req.done {
			return
		}
		c.dispatch(req, exclude, false, now)
	})
}

// completeRequest closes a request on its first reply: end-to-end and
// per-class latency, SLO accounting against the class bound, and the
// span's Ack covering arrival→reply so Perfetto shows the whole request
// including every failed attempt inside it.
func (c *Cluster) completeRequest(req *request, now sim.Time) {
	req.done = true
	c.eng.Cancel(req.dlTimer)
	lat := now - req.arrival
	req.span.Mark(obs.PhaseAck, frontLane, req.arrival, lat)
	c.m.completed.Inc()
	if req.attempts > 1 {
		c.m.recovered.Inc()
	}
	c.m.reqLatency.Observe(lat)
	cls := c.m.classOf(req)
	cls.latency.Observe(lat)
	slo := sloCold
	if req.hot {
		slo = sloHot
	}
	if lat <= slo {
		cls.sloMet.Inc()
	} else {
		cls.sloMiss.Inc()
	}
	c.outstanding--
	req.span.Release(now)
}

// failRequest closes a request without a reply, counted in reason: budget
// exhausted or deadline passed. The span ends without an Ack, which the request
// emitter renders as a gave-up trace line.
func (c *Cluster) failRequest(req *request, reason *metrics.Counter, now sim.Time) {
	req.done = true
	c.eng.Cancel(req.dlTimer)
	c.m.failed.Inc()
	reason.Inc()
	c.m.classOf(req).sloMiss.Inc()
	req.span.Mark(obs.PhaseReclaim, frontLane, now, now-req.arrival)
	c.outstanding--
	req.span.Release(now)
}
