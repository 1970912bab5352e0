// Package metrics provides the counters, gauges and latency histograms the
// experiments report. Histograms are log-bucketed, so percentiles stay
// within ~3% relative error however many samples there are, and a
// histogram's memory grows with the span of buckets its samples reach, up
// to 7.5 KB for a Histogram and 4 KB for a PercentileHist.
package metrics

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/bits"
	"sort"
	"strings"

	"latr/internal/sim"
)

// Histogram accumulates latency samples in log2 buckets with 16 linear
// sub-buckets each, covering 1 ns to ~18 s.
type Histogram struct {
	count uint64
	sum   float64
	min   sim.Time
	max   sim.Time
	span  bucketSpan
}

// The layout: values below 16 get exact buckets (indexes 0..15), and the
// octave [2^exp, 2^(exp+1)) of each exp from 4 to 62 (the largest an
// int64 sample reaches) gets 16 linear sub-buckets from index
// (exp-3)*16, so the octaves follow the exact buckets with no gap.
const (
	subBuckets  = 16
	histBuckets = (1 + 62 - 3) * subBuckets // the exact buckets, then octaves 4 to 62
)

func bucketOf(v sim.Time) int {
	if v < subBuckets {
		return int(max(v, 0))
	}
	exp := 63 - bits.LeadingZeros64(uint64(v))
	sub := int((uint64(v) >> (uint(exp) - 4)) & (subBuckets - 1))
	return (exp-3)*subBuckets + sub
}

func bucketMid(idx int) sim.Time {
	if idx < subBuckets {
		return sim.Time(idx)
	}
	exp := idx/subBuckets + 3
	sub := idx % subBuckets
	base := uint64(1) << uint(exp)
	width := base / subBuckets
	return sim.Time(base + uint64(sub)*width + width/2)
}

// Observe records one sample.
func (h *Histogram) Observe(v sim.Time) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += float64(v)
	i := bucketOf(v)
	if j := uint(i - h.span.lo); j < uint(len(h.span.n)) {
		h.span.n[j]++
	} else {
		h.span.n[h.span.grow(i, subBuckets, histBuckets)]++
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() sim.Time {
	if h.count == 0 {
		return 0
	}
	return sim.Time(h.sum / float64(h.count))
}

// Min and Max return the extreme observed samples.
func (h *Histogram) Min() sim.Time { return h.min }

// Max returns the largest observed sample.
func (h *Histogram) Max() sim.Time { return h.max }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) from the bucketed data.
func (h *Histogram) Quantile(q float64) sim.Time {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(q * float64(h.count))
	var cum uint64
	for j, c := range h.span.n {
		cum += c
		if cum > target {
			return bucketMid(h.span.lo + j)
		}
	}
	return h.max
}

func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.max)
}

// Registry is a named collection of counters, gauges and histograms.
// Writes go through the typed handles of handle.go (NewCounter, NewGauge,
// NewHist, NewPerc), which find their entry once; reads go by name, and
// what they return is read-only.
type Registry struct {
	counters map[string]*uint64
	gauges   map[string]*gauge
	hists    map[string]*Histogram
	percs    map[string]*PercentileHist
}

// gauge is one gauge's current value and high-water mark.
type gauge struct{ cur, peak int64 }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*uint64{},
		gauges:   map[string]*gauge{},
		hists:    map[string]*Histogram{},
		percs:    map[string]*PercentileHist{},
	}
}

// Counter returns the named counter's value (0 if never written).
func (r *Registry) Counter(name string) uint64 {
	if c, ok := r.counters[name]; ok {
		return *c
	}
	return 0
}

// Gauge returns the named gauge's current value.
func (r *Registry) Gauge(name string) int64 {
	if g, ok := r.gauges[name]; ok {
		return g.cur
	}
	return 0
}

// GaugePeak returns the named gauge's high-water mark.
func (r *Registry) GaugePeak(name string) int64 {
	if g, ok := r.gauges[name]; ok {
		return g.peak
	}
	return 0
}

// emptyHist and emptyPerc are what Hist and Perc return for a name never
// written: one shared, never-written value per kind, so such a read
// allocates nothing.
var (
	emptyHist Histogram
	emptyPerc PercentileHist
)

// Hist returns the named histogram, or a shared empty one if the name was
// never written. It is read-only: write through a Hist handle.
func (r *Registry) Hist(name string) *Histogram {
	if h, ok := r.hists[name]; ok {
		return h
	}
	return &emptyHist
}

// Perc returns the named percentile histogram, or a shared empty one if
// the name was never written. It is read-only: write through a Perc
// handle.
func (r *Registry) Perc(name string) *PercentileHist {
	if h, ok := r.percs[name]; ok {
		return h
	}
	return &emptyPerc
}

// Names returns all metric names, sorted, for report rendering.
func (r *Registry) Names() []string {
	seen := map[string]bool{}
	var names []string
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for n := range r.counters {
		add(n)
	}
	for n := range r.gauges {
		add(n)
	}
	for n := range r.hists {
		add(n)
	}
	for n := range r.percs {
		add(n)
	}
	sort.Strings(names)
	return names
}

// Fingerprint returns an FNV-1a hash of the full rendered dump — every
// counter, gauge (with peak) and histogram summary. Determinism tests
// compare fingerprints across seeded re-runs: any divergence in any
// metric changes the hash.
func (r *Registry) Fingerprint() uint64 {
	h := fnv.New64a()
	io.WriteString(h, r.Dump())
	return h.Sum64()
}

// Dump renders all metrics, one per line.
func (r *Registry) Dump() string { return r.DumpPrefix("") }

// DumpPrefix renders the metrics whose names start with prefix, one per
// line, in the same format as Dump. An empty prefix matches everything.
func (r *Registry) DumpPrefix(prefix string) string {
	var b strings.Builder
	for _, n := range r.Names() {
		if !strings.HasPrefix(n, prefix) {
			continue
		}
		if c, ok := r.counters[n]; ok {
			fmt.Fprintf(&b, "%-40s %d\n", n, *c)
		}
		if g, ok := r.gauges[n]; ok {
			fmt.Fprintf(&b, "%-40s cur=%d peak=%d\n", n, g.cur, g.peak)
		}
		if h, ok := r.hists[n]; ok {
			fmt.Fprintf(&b, "%-40s %s\n", n, h)
		}
		if p, ok := r.percs[n]; ok {
			fmt.Fprintf(&b, "%-40s %s digest=%016x\n", n, p, p.Digest())
		}
	}
	return b.String()
}
