package metrics

import "latr/internal/sim"

// Handles are the Registry's only write path. An owner (a kernel, a
// policy, a workload, a subsystem) takes one handle per metric when it is
// built and writes through it; the handle finds or creates its entry on
// its first write and keeps the pointer, so later writes hash no name.
// Until then a handle is a name and a nil pointer: a metric appears in
// Names and Dump only once written (a zero-delta write counts), and
// taking a handle allocates nothing. Handles that share a name share one
// entry. The lookup lives in resolve methods kept out of line, so a
// counter write inlines into its caller as a nil check and an add, and a
// gauge or histogram write is one call.

// Counter is a handle on one named counter of a Registry.
type Counter struct {
	v    *uint64
	r    *Registry
	name string
}

// NewCounter returns a handle on the named counter. Nothing is recorded
// until its first write.
func (r *Registry) NewCounter(name string) Counter { return Counter{r: r, name: name} }

// Add adds delta to the counter.
func (c *Counter) Add(delta uint64) {
	if c.v == nil {
		c.resolve()
	}
	*c.v += delta
}

// Inc adds one to the counter.
func (c *Counter) Inc() {
	if c.v == nil {
		c.resolve()
	}
	*c.v++
}

//go:noinline
func (c *Counter) resolve() {
	v, ok := c.r.counters[c.name]
	if !ok {
		v = new(uint64)
		c.r.counters[c.name] = v
	}
	c.v = v
}

// Gauge is a handle on one named gauge of a Registry.
type Gauge struct {
	g    *gauge
	r    *Registry
	name string
}

// NewGauge returns a handle on the named gauge. Nothing is recorded until
// its first write.
func (r *Registry) NewGauge(name string) Gauge { return Gauge{r: r, name: name} }

// Add moves the gauge by delta, tracking its peak.
func (g *Gauge) Add(delta int64) {
	v := g.g
	if v == nil {
		v = g.resolve()
	}
	c := v.cur + delta
	v.cur = c
	if c > v.peak {
		v.peak = c
	}
}

//go:noinline
func (g *Gauge) resolve() *gauge {
	v, ok := g.r.gauges[g.name]
	if !ok {
		v = &gauge{}
		g.r.gauges[g.name] = v
	}
	g.g = v
	return v
}

// Hist is a handle on one named Histogram of a Registry.
type Hist struct {
	h    *Histogram
	r    *Registry
	name string
}

// NewHist returns a handle on the named histogram. Nothing is recorded
// until its first write.
func (r *Registry) NewHist(name string) Hist { return Hist{r: r, name: name} }

// Observe records one sample.
func (h *Hist) Observe(v sim.Time) {
	if h.h == nil {
		h.resolve()
	}
	h.h.Observe(v)
}

//go:noinline
func (h *Hist) resolve() {
	v, ok := h.r.hists[h.name]
	if !ok {
		v = &Histogram{}
		h.r.hists[h.name] = v
	}
	h.h = v
}

// Perc is a handle on one named PercentileHist of a Registry: the
// fixed-bucket, bounded-error variant the tail-latency experiments use.
type Perc struct {
	h    *PercentileHist
	r    *Registry
	name string
}

// NewPerc returns a handle on the named percentile histogram. Nothing is
// recorded until its first write.
func (r *Registry) NewPerc(name string) Perc { return Perc{r: r, name: name} }

// Name returns the handle's metric name; the zero Perc has none.
func (h *Perc) Name() string { return h.name }

// Observe records one sample.
func (h *Perc) Observe(v sim.Time) {
	if h.h == nil {
		h.resolve()
	}
	h.h.Observe(v)
}

//go:noinline
func (h *Perc) resolve() {
	v, ok := h.r.percs[h.name]
	if !ok {
		v = &PercentileHist{}
		h.r.percs[h.name] = v
	}
	h.h = v
}
