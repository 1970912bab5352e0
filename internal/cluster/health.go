package cluster

import "latr/internal/sim"

// Health is the front-end's view of one node, the state machine the
// routing layer consults:
//
//	healthy → degraded   (slow-node window opens)
//	healthy → down       (crash, or partition suspected after timeouts)
//	down    → recovering (restart / probe got through)
//	recovering → healthy (recovery window elapses)
//
// The state is *derived* from the peer mirror's condition flags at read
// time rather than stored and transitioned — precedence Down >
// Recovering > Degraded — which makes illegal transitions
// unrepresentable: a node that crashes while degraded is simply Down,
// and goes back through Recovering regardless of how many fault windows
// overlapped.
type Health uint8

// Health states; see the Health doc comment for the transition graph.
const (
	Healthy Health = iota
	Degraded
	Down
	Recovering
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Down:
		return "down"
	case Recovering:
		return "recovering"
	}
	return "unknown"
}

// peerView is the front-end's mirror of one node: everything routing,
// probing and health accounting need, maintained entirely by front-end
// code. The fault-window flags are applied by the precomputed
// schedule at the same virtual instants the node applies them to itself;
// suspicion and load come from the front's own attempt accounting. This
// is also the honest model: a real load balancer routes on what it has
// observed over the wire, not on the server's internal state.
type peerView struct {
	cl *Cluster
	id int

	crashed   bool
	slowUntil sim.Time
	// partUntil mirrors the node's partition window for the probe loop
	// only — health() deliberately ignores it, exactly as before: the
	// front-end cannot see a silent partition, it learns via timeouts.
	partUntil    sim.Time
	recoverUntil sim.Time

	suspected      bool
	consecTimeouts int
	lastHealth     Health

	// outstanding counts this node's unsettled attempts — the front-end's
	// load signal for the least-loaded router.
	outstanding int
}

// health derives the node's current state from the mirror. Crash and
// suspicion are hard Down; a fresh restart (or cleared suspicion)
// reports Recovering for recoveryWindow; an open slow window reports
// Degraded.
func (p *peerView) health(now sim.Time) Health {
	switch {
	case p.crashed || p.suspected:
		return Down
	case now < p.recoverUntil:
		return Recovering
	case now < p.slowUntil:
		return Degraded
	}
	return Healthy
}

// noteHealth re-derives the node's state and records the transition when
// it changed, so the metrics expose the state machine's edge counts
// (cluster.health.<state>) and the trace shows when routing's view moved.
func (p *peerView) noteHealth(now sim.Time) {
	h := p.health(now)
	if h == p.lastHealth {
		return
	}
	p.lastHealth = h
	c := p.cl
	c.m.health[h].Inc()
	if c.tracer != nil {
		if !c.tracer.Record(now, frontLane, "health", "node %d -> %s", p.id, h) {
			c.m.traceDropped.Inc()
		}
	}
}
