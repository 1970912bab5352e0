package metrics

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/bits"

	"latr/internal/sim"
)

// PercentileHist is the fixed-bucket tail-latency histogram the
// remote-memory experiments report. Unlike Histogram (16 sub-buckets,
// summary-level percentiles), its bucket layout is part of the public
// contract: values 0..63 get exact unit buckets, larger values land in
// octaves split into 8 linear sub-buckets, so every quantile estimate is
// within ±6.25% of the true sample (the estimate is the midpoint of the
// bucket holding the target rank). Counts are integers end to end, which
// makes Digest byte-deterministic across worker counts and platforms.
type PercentileHist struct {
	count uint64
	sum   uint64 // total nanoseconds; request latencies stay far below overflow
	min   sim.Time
	max   sim.Time
	span  bucketSpan
}

// percSubBits splits each octave into 2^percSubBits linear sub-buckets.
const (
	percSubBits  = 3
	percSub      = 1 << percSubBits // 8
	percExact    = 64               // values below this get exact buckets
	percFirstExp = 6                // log2(percExact)
	percBuckets  = percExact + (63-percFirstExp)*percSub
	percLastIdx  = percBuckets - 1
)

// percBucketOf maps a sample to its bucket index.
func percBucketOf(v sim.Time) int {
	if v < 0 {
		v = 0
	}
	if v < percExact {
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(uint64(v))
	sub := int((uint64(v) >> (uint(exp) - percSubBits)) & (percSub - 1))
	idx := percExact + (exp-percFirstExp)*percSub + sub
	if idx > percLastIdx {
		idx = percLastIdx
	}
	return idx
}

// percBucketLow returns the inclusive lower bound of bucket idx.
func percBucketLow(idx int) sim.Time {
	if idx < percExact {
		return sim.Time(idx)
	}
	exp := percFirstExp + (idx-percExact)/percSub
	sub := (idx - percExact) % percSub
	return sim.Time((uint64(percSub + sub)) << uint(exp-percSubBits))
}

// percBucketMid returns the midpoint reported for bucket idx.
func percBucketMid(idx int) sim.Time {
	if idx < percExact {
		return sim.Time(idx)
	}
	exp := percFirstExp + (idx-percExact)/percSub
	width := sim.Time(uint64(1) << uint(exp-percSubBits))
	return percBucketLow(idx) + width/2
}

// Observe records one sample.
func (h *PercentileHist) Observe(v sim.Time) {
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
	i := percBucketOf(v)
	if j := uint(i - h.span.lo); j < uint(len(h.span.n)) {
		h.span.n[j]++
	} else {
		h.span.n[h.span.grow(i, percSub, percBuckets)]++
	}
}

// Count returns the number of samples.
func (h *PercentileHist) Count() uint64 { return h.count }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *PercentileHist) Mean() sim.Time {
	if h.count == 0 {
		return 0
	}
	return sim.Time(h.sum / h.count)
}

// Min and Max return the extreme observed samples.
func (h *PercentileHist) Min() sim.Time { return h.min }

// Max returns the largest observed sample.
func (h *PercentileHist) Max() sim.Time { return h.max }

// Quantile returns the q-quantile (0 ≤ q ≤ 1): the midpoint of the bucket
// holding the ⌈q·n⌉-th smallest sample, clamped to the observed [min, max].
// The true sample at that rank lies in the same bucket, so the estimate is
// within half a bucket width — ≤6.25% relative error — of it.
func (h *PercentileHist) Quantile(q float64) sim.Time {
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
	for j, c := range h.span.n {
		cum += c
		if cum >= rank {
			v := percBucketMid(h.span.lo + j)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// P50, P90, P99 and P999 are the percentiles the experiment tables report.
func (h *PercentileHist) P50() sim.Time { return h.Quantile(0.50) }

// P90 returns the 90th percentile.
func (h *PercentileHist) P90() sim.Time { return h.Quantile(0.90) }

// P99 returns the 99th percentile.
func (h *PercentileHist) P99() sim.Time { return h.Quantile(0.99) }

// P999 returns the 99.9th percentile.
func (h *PercentileHist) P999() sim.Time { return h.Quantile(0.999) }

// Digest folds the exact histogram contents — count, sum, extremes, and
// every non-empty bucket — into an FNV-1a hash. Two histograms digest
// equal iff they hold identical sample multisets at bucket resolution.
func (h *PercentileHist) Digest() uint64 {
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
	for j, c := range h.span.n {
		if c != 0 {
			w(uint64(h.span.lo + j))
			w(c)
		}
	}
	return f.Sum64()
}

func (h *PercentileHist) String() string {
	return fmt.Sprintf("n=%d p50=%v p90=%v p99=%v p99.9=%v max=%v",
		h.count, h.P50(), h.P90(), h.P99(), h.P999(), h.max)
}
