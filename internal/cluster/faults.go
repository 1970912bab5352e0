package cluster

import "latr/internal/sim"

// Fault injection: the cluster fault family from chaos.ClusterProfile.
//
// The whole schedule is drawn from the dedicated fault RNG up front, when
// traffic opens, as independent renewal processes per (node, fault class)
// — each window's start is an exponential gap from the end of the
// previous window, matching the old lazy self-rescheduling chains. The
// schedule is then applied twice at the same absolute virtual times: to
// the node itself (connection resets, service-time stretch, silent
// drops), and to the front-end's peer mirror (health edges, routing
// view). Neither side ever reads the other's state, which mirrors
// reality, where a fault hits the machine and the load balancer's
// picture of it through separate channels.
//
// Fault schedules start when traffic opens (a fleet that crashes during
// warm-up tests the loader, not the robustness pipeline).

// window is one fault interval in absolute virtual time.
type window struct{ start, end sim.Time }

// Fault classes, in the per-node scheduling order the chains start in.
const (
	faultCrash = iota
	faultSlow
	faultPartition
)

// chain is one (node, class) renewal process being replayed: it
// alternates between a pending window start (inWindow false — the next
// draw is the window length) and a pending window end (inWindow true —
// the next draw is the gap to the following start).
type chain struct {
	node, class int
	t           sim.Time
	inWindow    bool
	winStart    sim.Time
}

// drawSchedule replays the fault chains' event sequence deterministically
// and returns every window starting before horizon, per node and class.
// The single fault RNG is consumed in virtual-event order — each chain's
// window length is drawn at the window's start instant, the next gap at
// its end instant, interleaved across all chains exactly as the engine
// would have interleaved the old lazily self-rescheduling fault events.
// That keeps one (node, class) realization statistically coupled to
// nothing but the shared stream's history, and keeps seeded runs
// reproducing the schedules the committed scenarios were written against.
func (c *Cluster) drawSchedule(start, horizon sim.Time) [][3][]window {
	p := c.cfg.Profile
	frng := sim.NewRand(c.cfg.Seed ^ 0xfa_017_1e57)
	out := make([][3][]window, len(c.nodes))
	var chains []*chain
	for i := range c.nodes {
		if p.CrashMeanGap > 0 {
			chains = append(chains, &chain{node: i, class: faultCrash, t: start + frng.Exp(p.CrashMeanGap)})
		}
		if p.SlowMeanGap > 0 {
			chains = append(chains, &chain{node: i, class: faultSlow, t: start + frng.Exp(p.SlowMeanGap)})
		}
		if p.PartitionMeanGap > 0 {
			chains = append(chains, &chain{node: i, class: faultPartition, t: start + frng.Exp(p.PartitionMeanGap)})
		}
	}
	gapOf := [3]sim.Time{p.CrashMeanGap, p.SlowMeanGap, p.PartitionMeanGap}
	loOf := [3]sim.Time{p.CrashDownMin, p.SlowMin, p.PartitionMin}
	hiOf := [3]sim.Time{p.CrashDownMax, p.SlowMax, p.PartitionMax}
	for {
		var next *chain
		for _, ch := range chains {
			if next == nil || ch.t < next.t {
				next = ch
			}
		}
		if next == nil || next.t >= horizon {
			return out
		}
		if !next.inWindow {
			d := frng.Duration(loOf[next.class], hiOf[next.class])
			next.winStart = next.t
			next.t += d
			next.inWindow = true
		} else {
			out[next.node][next.class] = append(out[next.node][next.class],
				window{next.winStart, next.t})
			next.t += frng.Exp(gapOf[next.class])
			next.inWindow = false
		}
	}
}

// startFaults draws and applies the fault schedule. It runs between wire
// windows, when no message is held, just before traffic opens. The
// horizon covers the drain window: a node may crash while the last
// requests are still settling, exactly as the lazy chains allowed.
func (c *Cluster) startFaults(start sim.Time) {
	horizon := c.trafficEnd + requestDeadline + 10*sim.Millisecond
	sched := c.drawSchedule(start, horizon)
	for i, n := range c.nodes {
		pv := c.peers[i]
		for _, w := range sched[i][faultCrash] {
			c.applyCrash(n, pv, w)
		}
		for _, w := range sched[i][faultSlow] {
			c.applySlow(n, pv, w)
		}
		for _, w := range sched[i][faultPartition] {
			c.applyPartition(n, pv, w)
		}
	}
}

// applyCrash schedules one crash window on both sides.
//
// Node side: the connection state dies — the queue resets, in-service
// attempts become orphans via the epoch counter, the remote frame pool
// fails over to disk — while the kernel object keeps ticking, standing
// in for the rebooted instance that remounts the same arena. The
// front-end sees exactly what it would over a real wire: resets, then
// refused connections, then a recovered node whose cold keys got colder.
func (c *Cluster) applyCrash(n *node, pv *peerView, w window) {
	n.k.Engine.At(w.start, func(now sim.Time) {
		n.crashed = true
		n.epoch++
		n.met.crash.Inc()
		n.backend.Crash()
		q := n.queue
		n.queue = nil
		for _, at := range q {
			at := at
			n.sendFront(func(now sim.Time) { c.attemptFailed(at, &c.m.reset, now) })
		}
	})
	n.k.Engine.At(w.end, func(now sim.Time) {
		n.crashed = false
		n.met.restart.Inc()
	})

	c.eng.At(w.start, func(now sim.Time) {
		c.m.faultsCrash.Inc()
		pv.crashed = true
		pv.noteHealth(now)
	})
	c.eng.At(w.end, func(now sim.Time) {
		pv.crashed = false
		pv.recoverUntil = now + recoveryWindow
		pv.noteHealth(now)
		c.eng.After(recoveryWindow, pv.noteHealth)
	})
}

// applySlow schedules one slow window: the node stretches service times,
// the mirror reports Degraded.
func (c *Cluster) applySlow(n *node, pv *peerView, w window) {
	n.k.Engine.At(w.start, func(sim.Time) {
		n.slowUntil = w.end
		n.slowFactor = c.cfg.Profile.SlowFactorPct
	})

	c.eng.At(w.start, func(now sim.Time) {
		c.m.faultsSlow.Inc()
		pv.slowUntil = w.end
		pv.noteHealth(now)
	})
	c.eng.At(w.end, pv.noteHealth)
}

// applyPartition schedules one silent drop window: requests and replies
// crossing the wire while it is open vanish. The mirror records it for
// the probe loop only — no health note, because the front-end cannot see
// a partition directly; it learns through consecutive timeouts
// (suspicion) and relearns through probes.
func (c *Cluster) applyPartition(n *node, pv *peerView, w window) {
	n.k.Engine.At(w.start, func(sim.Time) { n.partUntil = w.end })
	c.eng.At(w.start, func(sim.Time) {
		c.m.faultsPartition.Inc()
		pv.partUntil = w.end
	})
}

// suspect marks a node Down after suspectAfter consecutive attempt
// timeouts and starts the probe loop that will eventually clear it.
func (c *Cluster) suspect(pv *peerView, now sim.Time) {
	if pv.suspected {
		return
	}
	pv.suspected = true
	c.m.suspected.Inc()
	pv.noteHealth(now)
	c.probe(pv)
}

// probe pings a suspected node every probePeriod; the first ping that
// gets through (no crash, no open partition window — judged against the
// mirror, whose windows are the node's by construction) clears suspicion
// after a wire round trip and puts the node through Recovering before it
// rejoins rotation fully.
func (c *Cluster) probe(pv *peerView) {
	c.eng.After(probePeriod, func(now sim.Time) {
		c.m.probes.Inc()
		if pv.crashed || now < pv.partUntil {
			c.probe(pv)
			return
		}
		c.eng.After(2*netDelay, func(now sim.Time) {
			pv.suspected = false
			pv.consecTimeouts = 0
			pv.recoverUntil = now + recoveryWindow
			pv.noteHealth(now)
			c.eng.After(recoveryWindow, pv.noteHealth)
		})
	})
}
