package obs

import (
	"testing"

	"latr/internal/metrics"
	"latr/internal/sim"
	"latr/internal/topo"
)

// BenchmarkSpanLifecycle opens a munmap span, marks every phase of a
// two-target synchronous shootdown and releases it, so each round feeds
// six of the collector's percentile histograms. No tracer and no
// retention, as on a machine built without them.
func BenchmarkSpanLifecycle(b *testing.B) {
	col := NewCollector("latr", metrics.NewRegistry(), nil, 0)
	mask := topo.MaskOf(1, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := sim.Time(i) * 10 * sim.Microsecond
		sp := col.Begin(KindMunmap, 0, 0x1000, 4, now)
		sp.SetTargets(mask)
		sp.Mark(PhaseInitiate, 0, now, 500)
		sp.Mark(PhaseSend, 0, now+500, 1200)
		sp.Mark(PhaseInvalidate, 1, now+900, 700)
		sp.Mark(PhaseInvalidate, 2, now+950, 700)
		sp.Mark(PhaseAck, 0, now+1700, 400)
		sp.Mark(PhaseReclaim, 0, now+2100, 300)
		sp.Release(now + 2400)
	}
}
