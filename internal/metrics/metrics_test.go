package metrics

import (
	"strings"
	"testing"

	"latr/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	h := &Histogram{}
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := 1; i <= 1000; i++ {
		h.Observe(sim.Time(i))
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 1000 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	mean := h.Mean()
	if mean < 480 || mean > 520 {
		t.Fatalf("mean = %v, want ~500", mean)
	}
	p50 := h.Quantile(0.5)
	if p50 < 450 || p50 > 560 {
		t.Fatalf("p50 = %v, want ~500 within bucket error", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 930 || p99 > 1070 {
		t.Fatalf("p99 = %v, want ~990", p99)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := &Histogram{}
	h.Observe(10)
	h.Observe(1000)
	if h.Quantile(0) != 10 {
		t.Fatalf("q0 = %v", h.Quantile(0))
	}
	if h.Quantile(1) != 1000 {
		t.Fatalf("q1 = %v", h.Quantile(1))
	}
}

func TestHistogramBucketError(t *testing.T) {
	// Relative bucket error must stay under ~7% across magnitudes.
	for _, v := range []sim.Time{3, 17, 100, 999, 12345, 1000000, 123456789} {
		h := &Histogram{}
		h.Observe(v)
		got := h.Quantile(0.5)
		diff := float64(got-v) / float64(v)
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.07 {
			t.Errorf("value %v mapped to %v (%.1f%% error)", v, got, diff*100)
		}
	}
}

func TestRegistryCounters(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != 0 {
		t.Fatal("unset counter nonzero")
	}
	x := r.NewCounter("x")
	x.Add(2)
	x.Add(3)
	if r.Counter("x") != 5 {
		t.Fatalf("counter = %d", r.Counter("x"))
	}
}

func TestRegistryGauges(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("g")
	g.Add(10)
	g.Add(5)
	g.Add(-12)
	if r.Gauge("g") != 3 {
		t.Fatalf("gauge = %d", r.Gauge("g"))
	}
	if r.GaugePeak("g") != 15 {
		t.Fatalf("peak = %d", r.GaugePeak("g"))
	}
	if r.Gauge("missing") != 0 || r.GaugePeak("missing") != 0 {
		t.Fatal("missing gauge nonzero")
	}
	down := r.NewGauge("down")
	down.Add(-4)
	if r.Gauge("down") != -4 || r.GaugePeak("down") != 0 {
		t.Fatalf("falling gauge cur=%d peak=%d, want -4 and 0", r.Gauge("down"), r.GaugePeak("down"))
	}
}

func TestRegistryHistAndDump(t *testing.T) {
	r := NewRegistry()
	lat := r.NewHist("lat")
	lat.Observe(100)
	lat.Observe(200)
	if r.Hist("lat").Count() != 2 {
		t.Fatal("hist lost samples")
	}
	if r.Hist("none").Count() != 0 {
		t.Fatal("missing hist nonempty")
	}
	c, g := r.NewCounter("c"), r.NewGauge("g")
	c.Inc()
	g.Add(1)
	dump := r.Dump()
	for _, want := range []string{"lat", "c", "g"} {
		if !strings.Contains(dump, want) {
			t.Errorf("Dump missing %q:\n%s", want, dump)
		}
	}
	names := r.Names()
	if len(names) != 3 {
		t.Fatalf("Names = %v", names)
	}
}
