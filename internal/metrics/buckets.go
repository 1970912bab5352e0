package metrics

// bucketSpan holds a histogram's counts for the buckets its samples reached:
// n[j] counts bucket lo+j, and every bucket outside [lo, lo+len(n)) is
// zero. It is nil until the first sample, which allocates the sample's
// octave of buckets plus one octave on each side; a later sample outside
// the span grows it toward that sample, at least doubling it, in whole
// octaves and clamped to the layout's size buckets. So a histogram costs
// what its samples reach, at most the whole layout, and a walk over n
// visits every non-zero bucket in index order. Each Observe increments an
// in-span bucket in its own body, so that path makes no call, and calls
// grow for a bucket outside the span.
type bucketSpan struct {
	n  []uint64
	lo int
}

// grow makes s cover bucket b and returns b's offset in it.
func (s *bucketSpan) grow(b, oct, size int) int {
	lo := b - b%oct
	hi := lo + oct
	if s.n == nil {
		lo, hi = lo-oct, hi+oct
	} else {
		oldLo, oldHi := s.lo, s.lo+len(s.n)
		lo, hi = min(lo, oldLo), max(hi, oldHi)
		if short := 2*len(s.n) - (hi - lo); short > 0 {
			if lo < oldLo {
				lo -= short
			} else {
				hi += short
			}
		}
	}
	lo, hi = max(lo, 0), min(hi, size)
	n := make([]uint64, hi-lo)
	if s.n != nil {
		copy(n[s.lo-lo:], s.n)
	}
	s.n, s.lo = n, lo
	return b - lo
}
