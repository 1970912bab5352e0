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

// add adds o's counts into s.
func (s *bucketSpan) add(o *bucketSpan, oct, size int) {
	if len(o.n) == 0 {
		return
	}
	if o.lo < s.lo || o.lo+len(o.n) > s.lo+len(s.n) {
		s.grow(o.lo, o.lo+len(o.n), oct, size)
	}
	for j, c := range o.n {
		s.n[o.lo-s.lo+j] += c
	}
}

// grow makes s cover buckets [first, hi) and returns first's offset in it.
func (s *bucketSpan) grow(first, hi, oct, size int) int {
	lo := first - first%oct
	hi += oct - 1 - (hi-1)%oct
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
	return first - lo
}
