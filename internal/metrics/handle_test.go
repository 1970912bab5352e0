package metrics

import (
	"slices"
	"strings"
	"testing"

	"latr/internal/sim"
)

// TestUnwrittenHandleIsAbsent: taking a handle records nothing; only a
// write makes the metric appear in Names and Dump.
func TestUnwrittenHandleIsAbsent(t *testing.T) {
	r := NewRegistry()
	c, g, h, p := r.NewCounter("c"), r.NewGauge("g"), r.NewHist("h"), r.NewPerc("p")
	if n := r.Names(); len(n) != 0 {
		t.Fatalf("Names with unwritten handles = %v, want none", n)
	}
	if d := r.Dump(); d != "" {
		t.Fatalf("Dump with unwritten handles = %q, want empty", d)
	}
	c.Inc()
	g.Add(1)
	h.Observe(1)
	p.Observe(1)
	if n := r.Names(); !slices.Equal(n, []string{"c", "g", "h", "p"}) {
		t.Fatalf("Names after writes = %v", n)
	}
}

// TestZeroDeltaWriteCreatesEntry: a zero-delta write is still a write.
func TestZeroDeltaWriteCreatesEntry(t *testing.T) {
	r := NewRegistry()
	c, g := r.NewCounter("c"), r.NewGauge("g")
	c.Add(0)
	g.Add(0)
	if n := r.Names(); !slices.Equal(n, []string{"c", "g"}) {
		t.Fatalf("Names = %v, want [c g]", n)
	}
	want := "c                                        0\n" +
		"g                                        cur=0 peak=0\n"
	if d := r.Dump(); d != want {
		t.Fatalf("Dump = %q, want %q", d, want)
	}
}

// TestHandlesShareOneEntry: handles with one name, taken by different
// owners, write the same entry, whichever resolves first.
func TestHandlesShareOneEntry(t *testing.T) {
	r := NewRegistry()
	a, b := r.NewCounter("shootdown.initiated"), r.NewCounter("shootdown.initiated")
	a.Add(2)
	b.Inc()
	a.Inc()
	if got := r.Counter("shootdown.initiated"); got != 4 {
		t.Fatalf("shared counter = %d, want 4", got)
	}
	g1, g2 := r.NewGauge("g"), r.NewGauge("g")
	g1.Add(5)
	g2.Add(-2)
	if r.Gauge("g") != 3 || r.GaugePeak("g") != 5 {
		t.Fatalf("shared gauge cur=%d peak=%d, want 3 and 5", r.Gauge("g"), r.GaugePeak("g"))
	}
	h1, h2 := r.NewHist("h"), r.NewHist("h")
	h1.Observe(10)
	h2.Observe(20)
	p1, p2 := r.NewPerc("p"), r.NewPerc("p")
	p1.Observe(10)
	p2.Observe(20)
	if r.Hist("h").Count() != 2 || r.Perc("p").Count() != 2 {
		t.Fatalf("shared histograms hold %d and %d samples, want 2 each", r.Hist("h").Count(), r.Perc("p").Count())
	}
	if n := len(r.Names()); n != 4 {
		t.Fatalf("Names = %v, want 4 entries", r.Names())
	}
}

// TestHandleDumpMatchesStringWrites pins the Dump and Fingerprint that
// the string-keyed write methods (Inc, GaugeAdd, Observe, ObservePerc,
// since replaced by handles) produced for the same writes, so the
// rendering every determinism digest hashes did not move. A counter and
// a percentile histogram share one name on purpose: Dump prints both.
func TestHandleDumpMatchesStringWrites(t *testing.T) {
	r := NewRegistry()
	ticks, zero := r.NewCounter("sched.ticks"), r.NewCounter("fault.zero")
	ticks.Add(3)
	ticks.Add(4)
	zero.Add(0)
	lazy, frames := r.NewGauge("latr.lazy_frames"), r.NewGauge("remote.frames")
	lazy.Add(7)
	lazy.Add(-9)
	frames.Add(5)
	frames.Add(-2)
	lat := r.NewHist("munmap.latency")
	for _, v := range []sim.Time{0, 15, 100, 2500, 1 << 20} {
		lat.Observe(v)
	}
	span := r.NewPerc("span.latr.munmap.total")
	for _, v := range []sim.Time{10 * sim.Microsecond, 90 * sim.Microsecond, 3 * sim.Millisecond} {
		span.Observe(v)
	}
	spanCount := r.NewCounter("span.latr.munmap.total")
	spanCount.Inc()

	want := strings.Join([]string{
		"fault.zero                               0",
		"latr.lazy_frames                         cur=-2 peak=7",
		"munmap.latency                           n=5 mean=210.238us p50=102ns p99=1.081ms max=1.049ms",
		"remote.frames                            cur=3 peak=5",
		"sched.ticks                              7",
		"span.latr.munmap.total                   1",
		"span.latr.munmap.total                   n=3 p50=86.016us p90=3.000ms p99=3.000ms p99.9=3.000ms max=3.000ms digest=d1586b4c441621d9",
		"",
	}, "\n")
	if d := r.Dump(); d != want {
		t.Fatalf("Dump =\n%s\nwant\n%s", d, want)
	}
	if fp := r.Fingerprint(); fp != 0xeea9ec227c732df8 {
		t.Fatalf("Fingerprint = %016x, want eea9ec227c732df8", fp)
	}
}

// TestWarmHandleWritesAllocateNothing: once resolved, no write kind
// allocates.
func TestWarmHandleWritesAllocateNothing(t *testing.T) {
	r := NewRegistry()
	c, g, h, p := r.NewCounter("c"), r.NewGauge("g"), r.NewHist("h"), r.NewPerc("p")
	write := func() {
		c.Inc()
		c.Add(2)
		g.Add(1)
		g.Add(-1)
		h.Observe(1500)
		p.Observe(1500)
	}
	write()
	if n := testing.AllocsPerRun(100, write); n != 0 {
		t.Fatalf("warm handle writes allocate %v objects per round, want 0", n)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().NewCounter("sched.ticks")
	c.Inc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkGaugeAdd(b *testing.B) {
	g := NewRegistry().NewGauge("latr.lazy_frames")
	g.Add(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Add(int64(i&1)*2 - 1)
	}
}

func BenchmarkHistObserve(b *testing.B) {
	h := NewRegistry().NewHist("munmap.latency")
	h.Observe(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(sim.Time(i & 0xffff))
	}
}

func BenchmarkPercObserve(b *testing.B) {
	p := NewRegistry().NewPerc("span.latr.munmap.total")
	p.Observe(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(sim.Time(i & 0xffff))
	}
}
