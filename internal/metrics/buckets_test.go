package metrics

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"testing"

	"latr/internal/sim"
)

// refHist and refPerc are Histogram and PercentileHist as they were before
// bucket spans: every bucket of the layout in one fixed array, allocated
// whole. refPerc shares percBucketOf and its midpoints with the span
// layout, so any difference the tests below find is in the span. refHist
// keeps Histogram's first layout, whose octave of exp started at index
// exp*16 and so left indexes 16-63 and 1008-1023 unused; a difference there
// is in the span or in the renumbering.
type refHist struct {
	count    uint64
	sum      float64
	min, max sim.Time
	buckets  [64 * subBuckets]uint64
}

func refBucketOf(v sim.Time) int {
	if v < subBuckets {
		return int(max(v, 0))
	}
	exp := 63 - bits.LeadingZeros64(uint64(v))
	return exp*subBuckets + int((uint64(v)>>(uint(exp)-4))&(subBuckets-1))
}

func refBucketMid(idx int) sim.Time {
	if idx < subBuckets {
		return sim.Time(idx)
	}
	width := uint64(1) << uint(idx/subBuckets-4)
	return sim.Time(uint64(1)<<uint(idx/subBuckets) + uint64(idx%subBuckets)*width + width/2)
}

func (h *refHist) Observe(v sim.Time) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += float64(v)
	h.buckets[refBucketOf(v)]++
}

func (h *refHist) Count() uint64 { return h.count }
func (h *refHist) Min() sim.Time { return h.min }
func (h *refHist) Max() sim.Time { return h.max }

func (h *refHist) Mean() sim.Time {
	if h.count == 0 {
		return 0
	}
	return sim.Time(h.sum / float64(h.count))
}

func (h *refHist) Quantile(q float64) sim.Time {
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
	for i, c := range h.buckets {
		cum += c
		if cum > target {
			return refBucketMid(i)
		}
	}
	return h.max
}

func (h *refHist) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.max)
}

type refPerc struct {
	count    uint64
	sum      uint64
	min, max sim.Time
	buckets  [percBuckets]uint64
}

func (h *refPerc) Observe(v sim.Time) {
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += uint64(v)
	h.buckets[percBucketOf(v)]++
}

func (h *refPerc) Count() uint64 { return h.count }
func (h *refPerc) Min() sim.Time { return h.min }
func (h *refPerc) Max() sim.Time { return h.max }

func (h *refPerc) Mean() sim.Time {
	if h.count == 0 {
		return 0
	}
	return sim.Time(h.sum / h.count)
}

func (h *refPerc) Quantile(q float64) sim.Time {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.count))
	if float64(rank) < q*float64(h.count) {
		rank++
	}
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= rank {
			return min(max(percBucketMid(i), h.min), h.max)
		}
	}
	return h.max
}

func (h *refPerc) Digest() uint64 {
	f := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		f.Write(buf[:])
	}
	w(h.count)
	w(h.sum)
	w(uint64(h.min))
	w(uint64(h.max))
	for i, c := range h.buckets {
		if c != 0 {
			w(uint64(i))
			w(c)
		}
	}
	return f.Sum64()
}

func (h *refPerc) String() string {
	return fmt.Sprintf("n=%d p50=%v p90=%v p99=%v p99.9=%v max=%v",
		h.count, h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Quantile(0.999), h.max)
}

// reads is what both layouts answer.
type reads interface {
	Count() uint64
	Mean() sim.Time
	Min() sim.Time
	Max() sim.Time
	Quantile(q float64) sim.Time
	String() string
}

// sameReads fails t unless got answers every read as want does, at a grid
// of q that includes 0, 1, every 1/64 and the tail ranks.
func sameReads(t *testing.T, what string, got, want reads) {
	t.Helper()
	if got.Count() != want.Count() || got.Mean() != want.Mean() || got.Min() != want.Min() || got.Max() != want.Max() {
		t.Fatalf("%s: count/mean/min/max %d/%v/%v/%v, want %d/%v/%v/%v", what,
			got.Count(), got.Mean(), got.Min(), got.Max(), want.Count(), want.Mean(), want.Min(), want.Max())
	}
	if g, w := got.String(), want.String(); g != w {
		t.Fatalf("%s: String %q, want %q", what, g, w)
	}
	qs := []float64{-1, 0.001, 0.999, 0.9999, 2}
	for i := 0; i <= 64; i++ {
		qs = append(qs, float64(i)/64)
	}
	for _, q := range qs {
		if g, w := got.Quantile(q), want.Quantile(q); g != w {
			t.Fatalf("%s: Quantile(%v) = %v, want %v", what, q, g, w)
		}
	}
}

// refStreams are seeded sample streams that reach every part of both
// layouts and grow a span in every way.
func refStreams() map[string][]sim.Time {
	rng := sim.NewRand(27)
	draw := func(n int, f func() sim.Time) []sim.Time {
		s := make([]sim.Time, n)
		for i := range s {
			s[i] = f()
		}
		return s
	}
	var down, up, both []sim.Time
	for v := sim.Time(1) << 40; v > 0; v = v * 7 / 10 {
		down = append(down, v, v+sim.Time(rng.Intn(8)))
	}
	for v := sim.Time(1); v < 1<<61; v = v*3/2 + 1 {
		up = append(up, v)
	}
	for k := 0; k < 40; k++ {
		both = append(both, sim.Time(1)<<20>>k, sim.Time(1)<<20<<k)
	}
	return map[string][]sim.Time{
		// No sample: every read is the empty histogram's.
		"empty": nil,
		// Negative values land in bucket 0; 0..15 and 0..63 are the two
		// layouts' exact buckets.
		"small": draw(500, func() sim.Time { return sim.Time(rng.Intn(100) - 20) }),
		// The top of both layouts: PercentileHist's last bucket and
		// Histogram's highest reachable one, which the spans clamp at.
		"top": draw(200, func() sim.Time { return math.MaxInt64 - sim.Time(rng.Int63n(1<<61)) }),
		// One octave: a span that never grows.
		"narrow": draw(300, func() sim.Time { return rng.Duration(2000, 2040) }),
		"latency": draw(2000, func() sim.Time {
			if rng.Intn(50) == 0 {
				return rng.Duration(100*sim.Microsecond, 5*sim.Millisecond)
			}
			return rng.Duration(sim.Microsecond, 20*sim.Microsecond)
		}),
		"wide": draw(2000, func() sim.Time { return sim.Time(rng.Uint64() >> (1 + rng.Intn(63))) }),
		"down": down,
		"up":   up,
		"both": both,
	}
}

// TestSpansMatchFixedArrays feeds each stream to both layouts of both
// kinds and wants every read, and PercentileHist's Digest, to agree.
func TestSpansMatchFixedArrays(t *testing.T) {
	for name, s := range refStreams() {
		var h Histogram
		var p PercentileHist
		var rh refHist
		var rp refPerc
		for i, v := range s {
			h.Observe(v)
			p.Observe(v)
			rh.Observe(v)
			rp.Observe(v)
			if i < 20 || i%97 == 0 {
				sameReads(t, fmt.Sprintf("hist %s after %d", name, i+1), &h, &rh)
				sameReads(t, fmt.Sprintf("perc %s after %d", name, i+1), &p, &rp)
			}
		}
		sameReads(t, "hist "+name, &h, &rh)
		sameReads(t, "perc "+name, &p, &rp)
		if g, w := p.Digest(), rp.Digest(); g != w {
			t.Fatalf("perc %s: Digest %016x, want %016x", name, g, w)
		}
		if len(h.span.n) > histBuckets || len(p.span.n) > percBuckets {
			t.Fatalf("%s: spans of %d and %d buckets exceed the layouts", name, len(h.span.n), len(p.span.n))
		}
	}
}

// TestHistBucketsHaveNoGap: every Histogram bucket is some value's, the
// last is the largest int64's, and each value's midpoint is the one the
// first layout gave it.
func TestHistBucketsHaveNoGap(t *testing.T) {
	for idx := 0; idx < histBuckets; idx++ {
		if got := bucketOf(bucketMid(idx)); got != idx {
			t.Fatalf("bucketOf(bucketMid(%d)) = %d", idx, got)
		}
	}
	if got := bucketOf(math.MaxInt64); got != histBuckets-1 {
		t.Errorf("bucketOf(MaxInt64) = %d, want %d", got, histBuckets-1)
	}
	for v := sim.Time(-1); v < math.MaxInt64/2; v += v/7 + 1 {
		if got, want := bucketMid(bucketOf(v)), refBucketMid(refBucketOf(v)); got != want {
			t.Fatalf("midpoint of %d is %d, want %d", v, got, want)
		}
	}
}

// TestSpanGrowth pins how a span is laid out: the first sample's octave
// plus one octave on each side, growth toward a sample outside the span
// to at least twice the length in whole octaves, and the layout's ends.
func TestSpanGrowth(t *testing.T) {
	type want struct{ lo, hi int }
	span := func(s bucketSpan) want { return want{s.lo, s.lo + len(s.n)} }
	for _, tc := range []struct {
		name      string
		oct, size int
		buckets   []int
		spans     []want
	}{
		{"hist first mid", subBuckets, histBuckets, []int{175}, []want{{144, 192}}},
		{"hist first at 0", subBuckets, histBuckets, []int{3}, []want{{0, 32}}},
		{"hist first at top", subBuckets, histBuckets, []int{959}, []want{{928, 960}}},
		{"hist grow up", subBuckets, histBuckets, []int{175, 192, 300}, []want{{144, 192}, {144, 240}, {144, 336}}},
		{"hist grow down", subBuckets, histBuckets, []int{175, 143, 50}, []want{{144, 192}, {96, 192}, {0, 192}}},
		{"hist in span", subBuckets, histBuckets, []int{175, 144, 191}, []want{{144, 192}, {144, 192}, {144, 192}}},
		{"hist grow to both ends", subBuckets, histBuckets, []int{500, 959, 0}, []want{{480, 528}, {480, 960}, {0, 960}}},
		{"perc first mid", percSub, percBuckets, []int{100}, []want{{88, 112}}},
		{"perc first at top", percSub, percBuckets, []int{519}, []want{{504, 520}}},
		{"perc grow up", percSub, percBuckets, []int{100, 112, 200}, []want{{88, 112}, {88, 136}, {88, 208}}},
		{"perc grow down", percSub, percBuckets, []int{100, 87, 5}, []want{{88, 112}, {64, 112}, {0, 112}}},
	} {
		var s bucketSpan
		for k, b := range tc.buckets {
			j := b - s.lo
			if uint(j) >= uint(len(s.n)) {
				j = s.grow(b, tc.oct, tc.size)
			}
			s.n[j]++
			if got := span(s); got != tc.spans[k] {
				t.Fatalf("%s: after bucket %d the span is [%d, %d), want [%d, %d)", tc.name, b, got.lo, got.hi, tc.spans[k].lo, tc.spans[k].hi)
			}
			if s.lo+j != b {
				t.Fatalf("%s: grow returned offset %d for bucket %d in a span from %d", tc.name, j, b, s.lo)
			}
		}
		var total uint64
		for _, c := range s.n {
			total += c
		}
		if total != uint64(len(tc.buckets)) {
			t.Fatalf("%s: growth kept %d of %d counts", tc.name, total, len(tc.buckets))
		}
	}
}
