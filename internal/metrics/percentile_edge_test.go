package metrics

import (
	"testing"

	"latr/internal/sim"
)

// TestPercSingleSample: one observation in the exact-bucket region is
// reported verbatim by every quantile and by the summary stats.
func TestPercSingleSample(t *testing.T) {
	var h PercentileHist
	const v = 42
	h.Observe(v)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != v || h.Max() != v || h.Mean() != v {
		t.Fatalf("single-sample summary min=%v max=%v mean=%v, want all %v", h.Min(), h.Max(), h.Mean(), sim.Time(v))
	}
	for _, q := range []float64{0, 0.001, 0.5, 0.999, 1} {
		if got := h.Quantile(q); got != v {
			t.Fatalf("single-sample q=%v = %v, want %v", q, got, sim.Time(v))
		}
	}
}
