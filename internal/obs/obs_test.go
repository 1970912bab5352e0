package obs

import (
	"strings"
	"testing"

	"latr/internal/metrics"
	"latr/internal/sim"
	"latr/internal/topo"
	"latr/internal/trace"
)

func newCollector(limit int) (*Collector, *metrics.Registry) {
	met := metrics.NewRegistry()
	return NewCollector("testpol", met, trace.New(256), limit), met
}

// TestSpanLifecycle walks one synchronous span through the full pipeline
// and checks counters, histograms and retention.
func TestSpanLifecycle(t *testing.T) {
	col, met := newCollector(8)
	sp := col.Begin(KindMunmap, 0, 0x1000, 4, 100)
	if col.OpenSpans() != 1 {
		t.Fatalf("OpenSpans = %d, want 1", col.OpenSpans())
	}
	var mask topo.CoreMask
	mask.Set(1)
	mask.Set(2)
	sp.SetTargets(mask)
	sp.Mark(PhaseInitiate, 0, 100, 50)
	sp.Mark(PhaseSend, 0, 150, 30)
	sp.Mark(PhaseInvalidate, 1, 200, 20)
	sp.Mark(PhaseInvalidate, 2, 210, 20)
	sp.Mark(PhaseAck, 0, 180, 60)
	sp.Mark(PhaseReclaim, 0, 260, 10)
	sp.Release(270)

	if col.OpenSpans() != 0 {
		t.Errorf("OpenSpans = %d after release", col.OpenSpans())
	}
	if got := met.Counter("span.opened"); got != 1 {
		t.Errorf("span.opened = %d", got)
	}
	if got := met.Counter("span.closed"); got != 1 {
		t.Errorf("span.closed = %d", got)
	}
	if got := met.Counter("span.incomplete"); got != 0 {
		t.Errorf("span.incomplete = %d (span had every phase)", got)
	}
	if n := len(col.Retained()); n != 1 {
		t.Fatalf("retained %d spans, want 1", n)
	}
	r := col.Retained()[0]
	if r.ClosedAt != 270 || r.OpenedAt != 100 || len(r.Events) != 6 {
		t.Errorf("retained span wrong: %+v", r)
	}
	if p := met.Perc("span.testpol.munmap.invalidate"); p == nil || p.Count() != 2 {
		t.Errorf("invalidate phase histogram not fed: %v", p)
	}
	if p := met.Perc("span.testpol.munmap.total"); p == nil || p.Count() != 1 {
		t.Errorf("total histogram not fed: %v", p)
	}
}

// TestSpanRefcount: retained obligations keep the span open; the last
// release closes it, and an extra release counts as a double close.
func TestSpanRefcount(t *testing.T) {
	col, met := newCollector(4)
	sp := col.Begin(KindMunmap, 0, 0, 1, 0)
	sp.Mark(PhaseInitiate, 0, 0, 1)
	sp.Retain() // quiesce hold
	sp.Retain() // reclaim hold
	sp.Release(10)
	sp.Release(20)
	if col.OpenSpans() != 1 || !sp.Open() {
		t.Fatal("span closed while a hold was outstanding")
	}
	sp.MarkLazy(PhaseReclaim, 0, 30, 5)
	sp.Release(35)
	if col.OpenSpans() != 0 || sp.Open() {
		t.Fatal("span still open after last release")
	}
	if sp.ClosedAt != 35 {
		t.Errorf("ClosedAt = %v, want 35", sp.ClosedAt)
	}
	sp.Release(40)
	if got := met.Counter("span.double_close"); got != 1 {
		t.Errorf("span.double_close = %d, want 1", got)
	}
}

// TestSpanIncomplete: a freeing span that never marks reclaim, or a span
// with targets that never saw invalidate/ack, is flagged incomplete.
func TestSpanIncomplete(t *testing.T) {
	col, met := newCollector(4)

	sp := col.Begin(KindMunmap, 0, 0, 1, 0)
	sp.Mark(PhaseInitiate, 0, 0, 1)
	sp.Release(5) // no reclaim -> incomplete (munmap frees)
	if got := met.Counter("span.incomplete"); got != 1 {
		t.Fatalf("span.incomplete = %d, want 1", got)
	}

	sp = col.Begin(KindSync, 0, 0, 1, 10)
	var mask topo.CoreMask
	mask.Set(1)
	sp.SetTargets(mask)
	sp.Mark(PhaseInitiate, 0, 10, 1)
	sp.Mark(PhaseSend, 0, 11, 1)
	sp.Release(15) // targets set but no invalidate/ack
	if got := met.Counter("span.incomplete"); got != 2 {
		t.Errorf("span.incomplete = %d, want 2", got)
	}

	sp = col.Begin(KindSync, 0, 0, 1, 20)
	sp.Mark(PhaseInitiate, 0, 20, 1)
	sp.Release(22) // sync with no targets needs nothing else
	if got := met.Counter("span.incomplete"); got != 2 {
		t.Errorf("span.incomplete = %d after complete sync span", got)
	}
}

// TestSpanNamesOnFirstWrite: a collector names a phase histogram when a
// closing span first feeds it, so only the kind/phase pairs a run closes
// appear in the registry.
func TestSpanNamesOnFirstWrite(t *testing.T) {
	col, met := newCollector(0)
	if n := met.Names(); len(n) != 0 {
		t.Fatalf("fresh collector registered %v", n)
	}
	sp := col.Begin(KindMadvise, 0, 0, 1, 0)
	sp.Mark(PhaseInitiate, 0, 0, 2)
	sp.Mark(PhaseReclaim, 0, 2, 3)
	sp.Release(5)
	want := []string{
		"span.closed", "span.opened",
		"span.testpol.madvise.initiate", "span.testpol.madvise.reclaim", "span.testpol.madvise.total",
	}
	if got := met.Names(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("Names = %v, want %v", got, want)
	}
	if p := met.Perc("span.testpol.madvise.total"); p.Count() != 1 || p.Max() != 5 {
		t.Fatalf("total histogram n=%d max=%v, want one sample of 5", p.Count(), p.Max())
	}
}

// TestSpanPooling: past the retention limit spans are recycled through the
// free list (same node pointer comes back) and counted dropped.
func TestSpanPooling(t *testing.T) {
	col, met := newCollector(1)
	a := col.Begin(KindSync, 0, 0, 1, 0)
	a.Mark(PhaseInitiate, 0, 0, 1)
	a.Release(1) // retained
	b := col.Begin(KindSync, 0, 0, 1, 2)
	b.Mark(PhaseInitiate, 0, 2, 1)
	b.Release(3) // over limit -> recycled
	if got := met.Counter("span.dropped"); got != 1 {
		t.Fatalf("span.dropped = %d, want 1", got)
	}
	c := col.Begin(KindSync, 0, 0, 1, 4)
	if c != b {
		t.Error("free list did not recycle the dropped span node")
	}
	if len(c.Events) != 0 || c.seen[PhaseInitiate] {
		t.Error("recycled span carries stale state")
	}
	if c.ID == b.ID && c.ID != 3 {
		t.Errorf("recycled span ID = %d, want fresh 3", c.ID)
	}
}

// TestZeroLimitRetainsNothing: limit 0 keeps the hot path retention-free
// without counting drops (nothing was ever promised).
func TestZeroLimitRetainsNothing(t *testing.T) {
	col, met := newCollector(0)
	sp := col.Begin(KindSync, 0, 0, 1, 0)
	sp.Mark(PhaseInitiate, 0, 0, 1)
	sp.Release(1)
	if len(col.Retained()) != 0 {
		t.Error("limit 0 retained a span")
	}
	if got := met.Counter("span.dropped"); got != 0 {
		t.Errorf("span.dropped = %d with limit 0", got)
	}
	// Metrics still flow.
	if got := met.Counter("span.closed"); got != 1 {
		t.Errorf("span.closed = %d", got)
	}
}

// TestNilSafety: nil spans and nil collectors absorb every call, so
// span-less code paths (direct policy invocations in tests) need no
// guards.
func TestNilSafety(t *testing.T) {
	var sp *Span
	var mask topo.CoreMask
	mask.Set(3)
	sp.SetTargets(mask)
	sp.Mark(PhaseInitiate, 0, 0, 1)
	sp.MarkLazy(PhaseSend, 0, 0, 1)
	sp.MarkUnsafe(PhaseAck, 0, 0, 1)
	sp.Retain()
	sp.Release(1)
	if sp.Open() {
		t.Error("nil span reports open")
	}

	var col *Collector
	if got := col.Begin(KindMunmap, 0, 0, 1, 0); got != nil {
		t.Error("nil collector returned a span")
	}
	if col.OpenSpans() != 0 || col.Retained() != nil || col.Policy() != "" {
		t.Error("nil collector accessors not zero-valued")
	}
	col.Digest() // must not panic
	if col.Dump() != "" || col.Summary() != "" {
		t.Error("nil collector rendered output")
	}
}

// TestDigestDeterminism: identical mark sequences produce identical
// digests; a differing duration changes the digest.
func TestDigestDeterminism(t *testing.T) {
	runOnce := func(dur sim.Time) uint64 {
		col, _ := newCollector(0)
		for i := 0; i < 5; i++ {
			sp := col.Begin(KindMunmap, 0, 0x40, 2, 0)
			sp.Mark(PhaseInitiate, 0, 0, 10)
			sp.Mark(PhaseReclaim, 0, 10, dur)
			sp.Release(20)
		}
		return col.Digest()
	}
	if runOnce(7) != runOnce(7) {
		t.Error("same sequence, different digest")
	}
	if runOnce(7) == runOnce(8) {
		t.Error("different durations, same digest")
	}
}

// TestEmitCanonicalTrace: each phase mark lands one event in the expected
// category, matching the old ad-hoc vocabulary.
func TestEmitCanonicalTrace(t *testing.T) {
	met := metrics.NewRegistry()
	tr := trace.New(64)
	col := NewCollector("latr", met, tr, 0)
	sp := col.Begin(KindMunmap, 0, 0x2000, 1, 0)
	var mask topo.CoreMask
	mask.Set(1)
	sp.SetTargets(mask)
	sp.Mark(PhaseInitiate, 0, 0, 1)
	sp.MarkLazy(PhaseSend, 0, 1, 1)
	sp.MarkLazy(PhaseInvalidate, 1, 2, 1)
	sp.MarkLazy(PhaseAck, 1, 3, 0)
	sp.MarkLazy(PhaseReclaim, 0, 4, 1)
	sp.Release(5)
	for _, cat := range []string{"munmap", "latr", "sweep", "reclaim"} {
		if len(tr.Filter(cat)) == 0 {
			t.Errorf("no %q event emitted", cat)
		}
	}
	if evs := tr.Filter("latr"); len(evs) != 2 {
		t.Errorf("latr events = %d, want state-saved + quiesced", len(evs))
	}
	if !strings.Contains(tr.Render(), "state quiesced") {
		t.Errorf("missing quiesce line:\n%s", tr.Render())
	}
}

// TestUnsafeMark flags the span and emits the chaos category.
func TestUnsafeMark(t *testing.T) {
	met := metrics.NewRegistry()
	tr := trace.New(64)
	col := NewCollector("latr", met, tr, 4)
	sp := col.Begin(KindMunmap, 0, 0, 1, 0)
	sp.Mark(PhaseInitiate, 0, 0, 1)
	sp.MarkUnsafe(PhaseAck, 0, 1, 0)
	sp.MarkLazy(PhaseReclaim, 0, 2, 1)
	sp.Release(3)
	r := col.Retained()[0]
	if !r.Unsafe || !r.Lazy {
		t.Errorf("Unsafe=%v Lazy=%v, want both true", r.Unsafe, r.Lazy)
	}
	if len(tr.Filter("chaos")) != 1 {
		t.Error("unsafe ack did not emit a chaos event")
	}
}
