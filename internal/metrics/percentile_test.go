package metrics

import (
	"sort"
	"testing"

	"latr/internal/sim"
)

// TestPercBucketBoundaries pins the bucket layout: exact unit buckets below
// 64, then octaves of 8 linear sub-buckets. Every value must land in a
// bucket whose [low, next-low) range contains it, and the reported midpoint
// must stay within half a bucket width.
func TestPercBucketBoundaries(t *testing.T) {
	// Exact region: identity.
	for v := sim.Time(0); v < percExact; v++ {
		if got := percBucketOf(v); got != int(v) {
			t.Fatalf("bucketOf(%d) = %d, want exact bucket", v, got)
		}
		if percBucketMid(int(v)) != v {
			t.Fatalf("mid(%d) = %v, want %v", v, percBucketMid(int(v)), v)
		}
	}
	// First octave: [64,128) in 8 sub-buckets of width 8.
	cases := []struct {
		v   sim.Time
		idx int
	}{
		{64, 64}, {71, 64}, {72, 65}, {127, 71},
		{128, 72}, {255, 79}, {256, 80},
	}
	for _, c := range cases {
		if got := percBucketOf(c.v); got != c.idx {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.idx)
		}
	}
	// Containment and monotonicity over a wide sweep.
	prev := -1
	for _, v := range []sim.Time{1, 63, 64, 100, 1000, 4096, 65537, 1 << 20, 1 << 30, 1 << 40} {
		idx := percBucketOf(v)
		if idx <= prev && v > 0 {
			// Different values may share a bucket, but order must hold.
			if idx < prev {
				t.Fatalf("bucket index not monotonic at %d", v)
			}
		}
		prev = idx
		low := percBucketLow(idx)
		var high sim.Time
		if idx < percLastIdx {
			high = percBucketLow(idx + 1)
		} else {
			high = 1 << 62
		}
		if v < low || v >= high {
			t.Fatalf("value %d outside its bucket %d [%d,%d)", v, idx, low, high)
		}
		if mid := percBucketMid(idx); mid < low || mid >= high {
			t.Fatalf("midpoint %d of bucket %d outside [%d,%d)", mid, idx, low, high)
		}
	}
	if percBucketOf(-5) != 0 {
		t.Fatalf("negative values must clamp to bucket 0")
	}
}

// TestPercQuantileErrorBound draws seeded samples from a heavy-tailed mix,
// compares every reported percentile against the exact sorted reference,
// and asserts the documented ≤6.25% relative error (7% tested, for rank
// rounding at small n).
func TestPercQuantileErrorBound(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		rng := sim.NewRand(seed)
		h := &PercentileHist{}
		var ref []sim.Time
		for i := 0; i < 20000; i++ {
			var v sim.Time
			switch rng.Intn(10) {
			case 0: // tail: long remote stalls
				v = rng.Duration(50*sim.Microsecond, 2*sim.Millisecond)
			case 1, 2: // mid: faulting requests
				v = rng.Duration(5*sim.Microsecond, 50*sim.Microsecond)
			default: // body: in-memory hits
				v = rng.Duration(500, 10*sim.Microsecond)
			}
			h.Observe(v)
			ref = append(ref, v)
		}
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
			rank := int(q * float64(len(ref)))
			if float64(rank) < q*float64(len(ref)) {
				rank++
			}
			if rank < 1 {
				rank = 1
			}
			exact := ref[rank-1]
			got := h.Quantile(q)
			diff := got - exact
			if diff < 0 {
				diff = -diff
			}
			bound := sim.Time(float64(exact)*0.07) + 1
			if diff > bound {
				t.Errorf("seed %d q=%v: got %v, exact %v, |diff|=%v > bound %v",
					seed, q, got, exact, diff, bound)
			}
		}
		if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
			t.Errorf("seed %d: quantile extremes must be min/max", seed)
		}
	}
}

// TestPercMerge checks that merging two shards is exactly equivalent to
// observing the union directly — counts, mean, every percentile, and the
// digest.
func TestPercMerge(t *testing.T) {
	rng := sim.NewRand(99)
	a, b, all := &PercentileHist{}, &PercentileHist{}, &PercentileHist{}
	for i := 0; i < 5000; i++ {
		v := rng.Duration(1, 3*sim.Millisecond)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		all.Observe(v)
	}
	a.Merge(b)
	if a.Count() != all.Count() || a.Mean() != all.Mean() || a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatalf("merge summary mismatch: %v vs %v", a, all)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if a.Quantile(q) != all.Quantile(q) {
			t.Fatalf("merge q=%v: %v != %v", q, a.Quantile(q), all.Quantile(q))
		}
	}
	if a.Digest() != all.Digest() {
		t.Fatalf("merged digest %016x != direct digest %016x", a.Digest(), all.Digest())
	}
	// Merging an empty histogram is a no-op.
	before := a.Digest()
	a.Merge(&PercentileHist{})
	if a.Digest() != before {
		t.Fatalf("merging an empty histogram changed the digest")
	}
}

// TestPercDigestDeterminism: identical sample streams digest identically;
// any difference — one extra sample, a shifted value — changes the digest.
func TestPercDigestDeterminism(t *testing.T) {
	build := func(seed uint64, n int) *PercentileHist {
		rng := sim.NewRand(seed)
		h := &PercentileHist{}
		for i := 0; i < n; i++ {
			h.Observe(rng.Duration(1, sim.Millisecond))
		}
		return h
	}
	if build(5, 1000).Digest() != build(5, 1000).Digest() {
		t.Fatalf("same stream, different digest")
	}
	if build(5, 1000).Digest() == build(5, 1001).Digest() {
		t.Fatalf("extra sample did not change digest")
	}
	if build(5, 1000).Digest() == build(6, 1000).Digest() {
		t.Fatalf("different stream, same digest")
	}
	var empty PercentileHist
	if empty.Digest() == build(5, 1).Digest() {
		t.Fatalf("empty digest collides with non-empty")
	}
	if empty.String() == "" || empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatalf("empty histogram accessors must be total")
	}
}

// TestRegistryPercIntegration: percentile histograms appear in Names, Dump
// and therefore Fingerprint, independently from plain histograms.
func TestRegistryPercIntegration(t *testing.T) {
	r := NewRegistry()
	req := r.NewPerc("req.latency")
	req.Observe(10 * sim.Microsecond)
	req.Observe(90 * sim.Microsecond)
	if r.Perc("req.latency").Count() != 2 {
		t.Fatalf("Perc accessor lost samples")
	}
	if r.Perc("absent").Count() != 0 {
		t.Fatalf("absent percentile hist must read empty")
	}
	found := false
	for _, n := range r.Names() {
		if n == "req.latency" {
			found = true
		}
	}
	if !found {
		t.Fatalf("percentile hist missing from Names: %v", r.Names())
	}
	fp1 := r.Fingerprint()
	req.Observe(90 * sim.Microsecond)
	if r.Fingerprint() == fp1 {
		t.Fatalf("fingerprint must cover percentile hists")
	}
}
