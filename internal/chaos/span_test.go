package chaos

import (
	"testing"

	"latr/internal/sim"
)

// spanRun gives the workload 20 ms and then three more workload-lengths of
// drain (a run stops at 4x its duration): scheduler ticks keep
// firing on idle cores, so every outstanding LATR state quiesces and every
// lazy entry ages past ReclaimDelay before the run ends.
func spanRun(seed uint64, prof Profile) Result {
	return Run(RunConfig{
		Seed:           seed,
		Profile:        prof,
		Sockets:        2,
		CoresPerSocket: 2,
		Duration:       20 * sim.Millisecond,
	})
}

// TestSpanInvariantsUnderJitter: under the recoverable jitter profile the
// span lifecycle must hold exactly — every span that opened closed once
// (no orphans at the deadline, no double closes) and closed with its full
// phase set (no incomplete spans).
func TestSpanInvariantsUnderJitter(t *testing.T) {
	prof, err := ProfileByName("jitter")
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 10; seed++ {
		r := spanRun(seed, prof)
		if r.Deadlocked {
			t.Fatalf("%v", r)
		}
		if r.SpansOpened == 0 {
			t.Fatalf("seed %d: workload opened no spans", seed)
		}
		if r.SpansOpen != 0 {
			t.Errorf("seed %d: %d orphan span(s) still open after drain", seed, r.SpansOpen)
		}
		if r.SpanDoubleClose != 0 {
			t.Errorf("seed %d: %d double-closed span(s)", seed, r.SpanDoubleClose)
		}
		if r.SpanIncomplete != 0 {
			t.Errorf("seed %d: %d span(s) closed with missing phases", seed, r.SpanIncomplete)
		}
		if r.SpansOpened != r.SpansClosed {
			t.Errorf("seed %d: opened %d != closed %d", seed, r.SpansOpened, r.SpansClosed)
		}
	}
}

// TestSpanInvariantsUnderUnsafeReclaim: the unsafe-reclaim profile frees
// lazy memory under still-active states, so those states never quiesce
// legitimately. The lifecycle must still terminate — the reclaim pass
// abandons the quiesce hold (flagged unsafe) instead of leaking the span —
// and nothing may close twice. Incomplete spans are NOT asserted zero
// here: a span whose state died unsafely legitimately misses phases.
func TestSpanInvariantsUnderUnsafeReclaim(t *testing.T) {
	prof, err := ProfileByName("unsafe-reclaim")
	if err != nil {
		t.Fatal(err)
	}
	var sawUnsafe bool
	for seed := uint64(1); seed <= 10; seed++ {
		r := spanRun(seed, prof)
		if r.Deadlocked {
			t.Fatalf("%v", r)
		}
		if r.SpansOpen != 0 {
			t.Errorf("seed %d: %d span(s) leaked by the unsafe-reclaim path", seed, r.SpansOpen)
		}
		if r.SpanDoubleClose != 0 {
			t.Errorf("seed %d: %d double-closed span(s)", seed, r.SpanDoubleClose)
		}
		if r.SpansOpened != r.SpansClosed {
			t.Errorf("seed %d: opened %d != closed %d", seed, r.SpansOpened, r.SpansClosed)
		}
		if len(r.Violations) > 0 {
			sawUnsafe = true
		}
	}
	if !sawUnsafe {
		t.Error("no seed tripped the auditor: the profile exercised nothing")
	}
}

// TestSpanAccountingDeterminism: the span counters are part of the
// deterministic state — same seed, same numbers.
func TestSpanAccountingDeterminism(t *testing.T) {
	prof, _ := ProfileByName("jitter")
	a := spanRun(42, prof)
	b := spanRun(42, prof)
	if a.SpansOpened != b.SpansOpened || a.SpansClosed != b.SpansClosed || a.SpanIncomplete != b.SpanIncomplete {
		t.Errorf("span counters differ across replays: %+v vs %+v", a, b)
	}
}
