package metrics

import (
	"math"
	"runtime"
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

// TestFirstWriteCost: a histogram handle's first one-sample write
// allocates the histogram and the span its sample reaches, at most 2
// objects and 512 bytes for either kind; a whole bucket array would be
// 9,472 bytes for a Histogram and 4,864 for a PercentileHist with their
// size classes. Each write's entry is deleted after it, so the registry's
// map keeps the room the warm-up write made and only the write is counted.
// A GC cycle can allocate runtime objects inside a window, so the gate
// reads the least of three windows.
func TestFirstWriteCost(t *testing.T) {
	const n = 200
	r := NewRegistry()
	for _, tc := range []struct {
		kind  string
		write func()
	}{
		{"Hist", func() {
			h := r.NewHist("munmap.latency")
			h.Observe(2000)
			delete(r.hists, "munmap.latency")
		}},
		{"Perc", func() {
			p := r.NewPerc("span.latr.munmap.total")
			p.Observe(2000)
			delete(r.percs, "span.latr.munmap.total")
		}},
	} {
		tc.write()
		objs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				tc.write()
			}
			runtime.ReadMemStats(&after)
			objs = min(objs, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		if objs > 2*n || bytes > 512*n {
			t.Errorf("a %s handle's first write allocates %.2f objects and %.0f B, want at most 2 and 512",
				tc.kind, float64(objs)/n, float64(bytes)/n)
		}
	}
}

// readH and readP hold what the unwritten reads below return, as a
// caller that keeps it would, so an empty value made per read would have
// to live on the heap.
var (
	readH *Histogram
	readP *PercentileHist
)

// TestUnwrittenReadAllocatesNothing: reading a histogram that was never
// written allocates no object.
func TestUnwrittenReadAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	read := func() { readH, readP = r.Hist("h"), r.Perc("p") }
	if a := testing.AllocsPerRun(100, read); a != 0 {
		t.Fatalf("unwritten reads allocate %v objects per round, want 0", a)
	}
	if readH.Count() != 0 || readP.Count() != 0 {
		t.Fatalf("unwritten reads hold %d and %d samples, want 0", readH.Count(), readP.Count())
	}
}

// TestWriteAfterUnwrittenRead: a handle written after a read of its
// unwritten name gets an entry of its own, and the value that read
// returned stays empty.
func TestWriteAfterUnwrittenRead(t *testing.T) {
	r := NewRegistry()
	eh, ep := r.Hist("h"), r.Perc("p")
	h, p := r.NewHist("h"), r.NewPerc("p")
	h.Observe(10)
	p.Observe(10)
	if r.Hist("h") == eh || r.Perc("p") == ep {
		t.Fatal("a written name still reads the shared empty value")
	}
	if r.Hist("h").Count() != 1 || r.Perc("p").Count() != 1 {
		t.Fatalf("written histograms hold %d and %d samples, want 1 each", r.Hist("h").Count(), r.Perc("p").Count())
	}
	if eh.Count() != 0 || ep.Count() != 0 || r.Hist("x").Count() != 0 || r.Perc("x").Count() != 0 {
		t.Fatalf("shared empty values hold %d and %d samples, want 0", eh.Count(), ep.Count())
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

// BenchmarkHistFirstWrite and BenchmarkPercFirstWrite measure a fresh
// handle's first three samples, all in one bucket as in the median
// litmus-corpus histogram: the entry, the histogram and its first span.
func BenchmarkHistFirstWrite(b *testing.B) {
	r := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := r.NewHist("munmap.latency")
		h.Observe(2000)
		h.Observe(2020)
		h.Observe(2040)
		delete(r.hists, "munmap.latency")
	}
}

func BenchmarkPercFirstWrite(b *testing.B) {
	r := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := r.NewPerc("span.latr.munmap.total")
		p.Observe(2000)
		p.Observe(2020)
		p.Observe(2040)
		delete(r.percs, "span.latr.munmap.total")
	}
}
