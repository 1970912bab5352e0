package cluster

import "latr/internal/metrics"

// frontMetrics holds the front-end's metric handles, named in New.
type frontMetrics struct {
	offered, admitted, completed, recovered, failed                 metrics.Counter
	attempts, unroutable, hedges, hedgeWasted, lateReplies, retries metrics.Counter
	suspected, probes, faultsCrash, faultsSlow, faultsPartition     metrics.Counter

	// The fast failures an attempt settles with (cluster.<reason>), the
	// silent one, and the reasons a request gives up (cluster.failed_<reason>).
	reset, refused, shed, timeouts  metrics.Counter
	failedDeadline, failedExhausted metrics.Counter

	attemptLatency, reqLatency metrics.Perc

	// class[0] is the cold tail, class[1] the hot set (see classOf).
	class [2]classMetrics
	// health[h] counts transitions into h (cluster.health.<h>).
	health [Recovering + 1]metrics.Counter
}

// classMetrics is one key class's SLO accounting: cluster.<class>.*.
type classMetrics struct {
	sloMet, sloMiss metrics.Counter
	latency         metrics.Perc
}

func newFrontMetrics(r *metrics.Registry) frontMetrics {
	m := frontMetrics{
		offered:         r.NewCounter("cluster.offered"),
		admitted:        r.NewCounter("cluster.admitted"),
		completed:       r.NewCounter("cluster.completed"),
		recovered:       r.NewCounter("cluster.recovered"),
		failed:          r.NewCounter("cluster.failed"),
		attempts:        r.NewCounter("cluster.attempts"),
		unroutable:      r.NewCounter("cluster.unroutable"),
		hedges:          r.NewCounter("cluster.hedges"),
		hedgeWasted:     r.NewCounter("cluster.hedge_wasted"),
		lateReplies:     r.NewCounter("cluster.late_replies"),
		retries:         r.NewCounter("cluster.retries"),
		suspected:       r.NewCounter("cluster.suspected"),
		probes:          r.NewCounter("cluster.probes"),
		faultsCrash:     r.NewCounter("cluster.faults.crash"),
		faultsSlow:      r.NewCounter("cluster.faults.slow"),
		faultsPartition: r.NewCounter("cluster.faults.partition"),
		reset:           r.NewCounter("cluster.reset"),
		refused:         r.NewCounter("cluster.refused"),
		shed:            r.NewCounter("cluster.shed"),
		timeouts:        r.NewCounter("cluster.timeouts"),
		failedDeadline:  r.NewCounter("cluster.failed_deadline"),
		failedExhausted: r.NewCounter("cluster.failed_exhausted"),
		attemptLatency:  r.NewPerc("cluster.attempt_latency"),
		reqLatency:      r.NewPerc("cluster.req_latency"),
	}
	for i, cls := range [2]string{"cold", "hot"} {
		m.class[i] = classMetrics{
			sloMet:  r.NewCounter("cluster." + cls + ".slo_met"),
			sloMiss: r.NewCounter("cluster." + cls + ".slo_miss"),
			latency: r.NewPerc("cluster." + cls + ".latency"),
		}
	}
	for h := range m.health {
		m.health[h] = r.NewCounter("cluster.health." + Health(h).String())
	}
	return m
}

// classOf returns the SLO accounting of req's key class.
func (m *frontMetrics) classOf(req *request) *classMetrics {
	if req.hot {
		return &m.class[1]
	}
	return &m.class[0]
}

// nodeMetrics holds a node's handles into its own kernel's registry.
type nodeMetrics struct {
	served, orphans, partDropped, crash, restart metrics.Counter
}

func newNodeMetrics(r *metrics.Registry) nodeMetrics {
	return nodeMetrics{
		served:      r.NewCounter("cluster.served"),
		orphans:     r.NewCounter("cluster.orphans"),
		partDropped: r.NewCounter("cluster.part_dropped"),
		crash:       r.NewCounter("cluster.crash"),
		restart:     r.NewCounter("cluster.restart"),
	}
}
