package sim

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ns"},
		{500, "500ns"},
		{999, "999ns"},
		{1000, "1.000us"},
		{1500, "1.500us"},
		{999999, "999.999us"},
		{Millisecond, "1.000ms"},
		{2 * Millisecond, "2.000ms"},
		{Second - Microsecond, "999.999ms"},
		{Second, "1.000000s"},
		{3 * Second, "3.000000s"},
		// Negative values must pick the unit of their magnitude: before the
		// fix, every t < 0 matched the t < Microsecond branch and -1.5ms
		// printed as "-1500000ns".
		{-500, "-500ns"},
		{-999, "-999ns"},
		{-1000, "-1.000us"},
		{-1500, "-1.500us"},
		{-Millisecond - Millisecond/2, "-1.500ms"},
		{-Second, "-1.000000s"},
		{-3 * Second, "-3.000000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func(Time) { order = append(order, 3) })
	e.At(10, func(Time) { order = append(order, 1) })
	e.At(20, func(Time) { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(10, func(Time) { fired = true })
	if !e.Cancel(ev) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel(ev) {
		t.Fatal("double Cancel returned true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEngineReschedule(t *testing.T) {
	e := NewEngine()
	var at Time
	ev := e.At(10, func(now Time) { at = now })
	e.Reschedule(ev, 25)
	e.Run()
	if at != 25 {
		t.Fatalf("rescheduled event fired at %v, want 25", at)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, tt := range []Time{5, 15, 25} {
		tt := tt
		e.At(tt, func(now Time) { fired = append(fired, now) })
	}
	e.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(20) fired %d events, want 2", len(fired))
	}
	if e.Now() != 20 {
		t.Fatalf("clock after RunUntil = %v, want 20", e.Now())
	}
	e.RunUntil(30)
	if len(fired) != 3 {
		t.Fatalf("second RunUntil fired %d total, want 3", len(fired))
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func(now Time)
	tick = func(now Time) {
		count++
		if count < 100 {
			e.After(7, tick)
		}
	}
	e.After(7, tick)
	e.Run()
	if count != 100 {
		t.Fatalf("chained ticks = %d, want 100", count)
	}
	if e.Now() != 700 {
		t.Fatalf("clock = %v, want 700", e.Now())
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func(Time) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(5, func(Time) {})
}

func TestEngineRescheduleZeroTimer(t *testing.T) {
	e := NewEngine()
	// Rescheduling the zero Timer must be a safe no-op (it used to panic on
	// the nil callback): Core.segEvent starts life as a zero Timer.
	tm := e.Reschedule(Timer{}, 25)
	if tm.Pending() {
		t.Fatal("rescheduled zero Timer claims to be pending")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after rescheduling zero Timer, want 0", e.Pending())
	}
	e.Run()
}

func TestEngineRescheduleAfterFire(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := e.At(10, func(Time) { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	// Rescheduling a fired timer schedules the same callback afresh.
	tm = e.Reschedule(tm, 30)
	if !tm.Pending() {
		t.Fatal("rescheduled-after-fire timer not pending")
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d after reschedule-after-fire, want 2", fired)
	}
}

func TestEnginePendingCountsLiveOnly(t *testing.T) {
	e := NewEngine()
	var tms []Timer
	for i := 0; i < 10; i++ {
		tms = append(tms, e.At(Time(100+i), func(Time) {}))
	}
	if e.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", e.Pending())
	}
	for _, tm := range tms[:4] {
		e.Cancel(tm)
	}
	if e.Pending() != 6 {
		t.Fatalf("Pending = %d after 4 cancels, want 6", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Run, want 0", e.Pending())
	}
}

func TestEngineCompaction(t *testing.T) {
	e := NewEngine()
	// One far-future live event plus a large churn of cancelled ones: the
	// queue must not retain the dead entries.
	live := 0
	e.At(1_000_000, func(Time) { live++ })
	for i := 0; i < 10000; i++ {
		tm := e.At(Time(500_000+i), func(Time) { t.Fatal("cancelled event fired") })
		e.Cancel(tm)
	}
	if n := e.queued(); n > 100 {
		t.Fatalf("heap and lane hold %d entries after cancel churn, want compacted (≤100)", n)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if live != 1 {
		t.Fatalf("live event fired %d times, want 1", live)
	}
}

func TestEngineCompactionPreservesOrder(t *testing.T) {
	// Interleave live and cancelled events so that compaction must rebuild
	// the heap mid-stream, then check FIFO-at-same-instant order holds.
	e := NewEngine()
	var order []int
	next := 0
	for i := 0; i < 500; i++ {
		i := i
		e.At(Time(10+i%7), func(Time) { order = append(order, i) })
		for j := 0; j < 3; j++ {
			e.Cancel(e.At(Time(1000+i), func(Time) {}))
		}
	}
	e.Run()
	if len(order) != 500 {
		t.Fatalf("fired %d events, want 500", len(order))
	}
	// Reconstruct expected order: sorted by (when, insertion order).
	byWhen := map[int][]int{}
	for i := 0; i < 500; i++ {
		w := 10 + i%7
		byWhen[w] = append(byWhen[w], i)
	}
	for w := 10; w <= 16; w++ {
		for _, want := range byWhen[w] {
			if order[next] != want {
				t.Fatalf("order[%d] = %d, want %d (compaction broke ordering)", next, order[next], want)
			}
			next++
		}
	}
}

// TestMassCancellationCompactionLinear is the heap-compaction regression
// test: schedule n far-future timers, cancel them all (the cluster
// hedging pattern — losers of every hedge race get cancelled), and
// assert the total compaction scan work stays linear in n. Before the
// domination-threshold tuning a dead-dominated queue could be popped
// entry by entry, O(n log n) sift-downs, and a compaction pass per
// cancellation batch made the scan work quadratic.
func TestMassCancellationCompactionLinear(t *testing.T) {
	const n = 100_000
	e := NewEngine()
	timers := make([]Timer, 0, n)
	for i := 0; i < n; i++ {
		timers = append(timers, e.After(Time(1000+i), func(Time) {}))
	}
	// One live sentinel beyond them all so the queue never empties.
	e.At(Time(10_000_000), func(Time) {})
	for _, tm := range timers {
		e.Cancel(tm)
	}
	_, scanned := e.CompactStats()
	// Each compaction pass fires only once dead entries dominate and
	// removes all of them, so total scanned work is a small constant
	// multiple of n. 8n is generous; the quadratic regime is ~n²/2.
	if scanned > 8*n {
		t.Fatalf("compaction scanned %d entries for %d cancels — super-linear", scanned, n)
	}
	e.Run()
	if got := e.Dispatched(); got != 1 {
		t.Fatalf("dispatched %d events, want 1 (the sentinel)", got)
	}
}

// TestDeadDominatedStepCompacts: Step on a dead-dominated queue bulk
// compacts instead of popping one dead entry per iteration.
func TestDeadDominatedStepCompacts(t *testing.T) {
	e := NewEngine()
	var timers []Timer
	for i := 0; i < 1000; i++ {
		timers = append(timers, e.After(Time(i+1), func(Time) {}))
	}
	e.At(2000, func(Time) {})
	// Cancel back-to-front so the heap top stays live until the last
	// moment and the dead entries pile up below the threshold trigger.
	for i := len(timers) - 1; i >= 0; i-- {
		e.Cancel(timers[i])
	}
	p0, _ := e.CompactStats()
	if p0 == 0 {
		t.Fatal("mass cancellation never triggered a compaction pass")
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("queue not drained: %d pending", e.Pending())
	}
}

func TestEngineStaleTimerAfterRecycle(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm1 := e.At(10, func(Time) { fired++ })
	e.Run()
	// tm1's node has been recycled; schedule more events so the node is
	// likely reused, then make sure tm1 cannot cancel its successor.
	var tms []Timer
	for i := 0; i < 8; i++ {
		tms = append(tms, e.At(Time(20+i), func(Time) { fired++ }))
	}
	if tm1.Pending() {
		t.Fatal("fired timer claims to be pending")
	}
	if e.Cancel(tm1) {
		t.Fatal("stale Timer cancelled a recycled event")
	}
	if e.Pending() != 8 {
		t.Fatalf("Pending = %d, want 8", e.Pending())
	}
	e.Run()
	if fired != 9 {
		t.Fatalf("fired = %d, want 9 (stale handle must not affect successors)", fired)
	}
}

func TestEngineFreeListReuse(t *testing.T) {
	e := NewEngine()
	// A steady-state dispatch loop must recycle nodes rather than grow the
	// free list or the heap without bound.
	var tick func(now Time)
	n := 0
	tick = func(now Time) {
		n++
		if n < 10000 {
			e.After(3, tick)
		}
	}
	e.After(3, tick)
	e.Run()
	if n != 10000 {
		t.Fatalf("ticks = %d, want 10000", n)
	}
	if len(e.free) > 4 {
		t.Fatalf("free list holds %d nodes after a 1-deep tick chain, want ≤4", len(e.free))
	}
}

// inLane reports whether tm's queued entry sits in the engine's lane.
func (e *Engine) inLane(tm Timer) bool {
	for i := 0; i < e.laneLen; i++ {
		if e.nodes[e.laneAt(i).id] == tm.ev {
			return true
		}
	}
	return false
}

func TestEngineRandomScheduleMatchesReference(t *testing.T) {
	// Random At/Cancel/Reschedule traffic interleaved with Step, RunUntil
	// and NextLive, with cancel bursts that force compaction, must
	// dispatch in exactly sorted (when, seq) order — checked against a
	// reference list of the pending events. Staggered periodic timers,
	// the scheduler ticks' shape, ride along: they fill the lane while
	// the random traffic lands in both the lane and the heap.
	type ref struct {
		when Time
		seq  uint64
		id   int
	}
	const (
		chains = 6  // periodic timers kept running
		period = 40 // their period
	)
	var compactions, ties, laneCancels, laneReschedules, laneCompactions, bothHeld int
	for seed := uint64(1); seed <= 10; seed++ {
		r := NewRand(seed)
		e := NewEngine()
		var pending []ref // the reference: every live scheduled event
		timers := map[int]Timer{}
		periodic := map[int]bool{} // ids of the periodic chains' next ticks
		ticking := true
		var fired []int
		nextID := 0
		// at schedules an event that records its firing and then runs then.
		at := func(when Time, then func(now Time)) int {
			id := nextID
			nextID++
			pending = append(pending, ref{when, e.Scheduled(), id})
			timers[id] = e.At(when, func(now Time) {
				fired = append(fired, id)
				then(now)
			})
			return id
		}
		schedule := func(when Time) { at(when, func(Time) {}) }
		var tick func(when Time)
		tick = func(when Time) {
			var id int
			id = at(when, func(now Time) {
				delete(periodic, id)
				if ticking {
					tick(now + period)
				}
			})
			periodic[id] = true
		}
		for j := 0; j < chains; j++ {
			tick(Time(j * period / chains))
		}
		removeAt := func(i int) ref {
			rf := pending[i]
			pending = append(pending[:i], pending[i+1:]...)
			delete(periodic, rf.id)
			return rf
		}
		sortPending := func() {
			sort.Slice(pending, func(i, j int) bool {
				a, b := pending[i], pending[j]
				return a.when < b.when || (a.when == b.when && a.seq < b.seq)
			})
		}
		// expectFired checks the events fired since mark against the
		// reference events due by deadline (at most max of them), in sorted
		// (when, seq) order.
		expectFired := func(mark int, deadline Time, max int) {
			sortPending()
			var want []int
			for len(pending) > 0 && pending[0].when <= deadline && len(want) < max {
				want = append(want, removeAt(0).id)
			}
			if got := fired[mark:]; !slices.Equal(got, want) {
				t.Fatalf("seed %d: dispatched %v, want %v", seed, got, want)
			}
		}
		for step := 0; step < 1500; step++ {
			if e.laneLen > 0 && len(e.queue) > 0 {
				bothHeld++
				if e.laneAt(0).when == e.queue[0].when {
					ties++
				}
			}
			deadInLane := false
			for i := 0; i < e.laneLen; i++ {
				deadInLane = deadInLane || e.nodes[e.laneAt(i).id].dead
			}
			passes, _ := e.CompactStats()
			switch k := r.Intn(11); {
			case k < 4:
				if len(periodic) < chains {
					tick(e.Now() + Time(r.Intn(period)))
				} else {
					schedule(e.Now() + Time(r.Intn(50)))
				}
			case k < 5 && len(pending) > 0:
				rf := removeAt(r.Intn(len(pending)))
				if e.inLane(timers[rf.id]) {
					laneCancels++
				}
				if !e.Cancel(timers[rf.id]) {
					t.Fatalf("seed %d: Cancel of pending event %d returned false", seed, rf.id)
				}
			case k < 6 && len(pending) > 0:
				i := r.Intn(len(pending))
				when := e.Now() + Time(r.Intn(50))
				if e.inLane(timers[pending[i].id]) {
					laneReschedules++
				}
				pending[i].when, pending[i].seq = when, e.Scheduled()
				timers[pending[i].id] = e.Reschedule(timers[pending[i].id], when)
			case k < 7:
				// A burst of far-future timers, nearly all cancelled, so dead
				// entries dominate the queue and compaction runs.
				for j := 0; j < 80; j++ {
					schedule(e.Now() + 1000 + Time(r.Intn(1000)))
				}
				for j := 0; j < 72; j++ {
					rf := removeAt(len(pending) - 1 - r.Intn(8))
					if e.inLane(timers[rf.id]) {
						laneCancels++
					}
					e.Cancel(timers[rf.id])
				}
			case k < 9:
				mark := len(fired)
				e.Step()
				expectFired(mark, 1<<62, 1)
			case k < 10:
				mark := len(fired)
				deadline := e.Now() + Time(r.Intn(40))
				e.RunUntil(deadline)
				expectFired(mark, deadline, len(pending))
			default:
				got, ok := e.NextLive()
				sortPending()
				if ok != (len(pending) > 0) || ok && got != pending[0].when {
					t.Fatalf("seed %d step %d: NextLive = %v, %v; reference %v", seed, step, got, ok, pending)
				}
			}
			if p, _ := e.CompactStats(); p > passes && deadInLane {
				laneCompactions++
			}
			if e.Pending() != len(pending) {
				t.Fatalf("seed %d step %d: Pending = %d, reference holds %d", seed, step, e.Pending(), len(pending))
			}
		}
		ticking = false
		mark := len(fired)
		e.Run()
		expectFired(mark, 1<<62, len(pending))
		passes, _ := e.CompactStats()
		compactions += int(passes)
	}
	t.Logf("%d compactions (%d with dead lane entries), %d steps with both lane and heap holding entries, %d head ties, %d lane cancels, %d lane reschedules",
		compactions, laneCompactions, bothHeld, ties, laneCancels, laneReschedules)
	if compactions == 0 || laneCompactions == 0 {
		t.Fatal("no schedule forced a compaction with dead entries in the lane")
	}
	if bothHeld == 0 || ties == 0 {
		t.Fatal("the lane and the heap never held entries at once, or never tied at their heads")
	}
	if laneCancels == 0 || laneReschedules == 0 {
		t.Fatal("no lane entry was cancelled or rescheduled")
	}
}

func BenchmarkEngineDispatch(b *testing.B) {
	e := NewEngine()
	var tick func(now Time)
	tick = func(now Time) { e.After(5, tick) }
	e.After(5, tick)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkEngineRescheduleChurn(b *testing.B) {
	// Models the Core.segEvent pattern: one far-future deadline repeatedly
	// pulled earlier, with a trickle of real events dispatching.
	e := NewEngine()
	var tick func(now Time)
	tick = func(now Time) { e.After(50, tick) }
	e.After(50, tick)
	deadline := e.At(1<<40, func(Time) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deadline = e.Reschedule(deadline, e.Now()+1<<40)
		e.Step()
	}
}

// BenchmarkEngineStaggeredTicks has the shape of an 8x15 machine: 120
// cores each with a 1 ms tick, staggered across the period, and every
// fourth tick starting a short one-shot event (a compute segment's end or
// an IPI delivery) a few microseconds out.
func BenchmarkEngineStaggeredTicks(b *testing.B) {
	const cores = 120
	e := NewEngine()
	oneShot := func(Time) {}
	var ticks [cores]func(now Time)
	n := 0
	for i := range ticks {
		ticks[i] = func(now Time) {
			e.At(now+Millisecond, ticks[i])
			if n++; n%4 == 0 {
				e.At(now+Time(1+n%50)*Microsecond, oneShot)
			}
		}
		e.At(Time(i)*Millisecond/cores, ticks[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/1000 identical values", same)
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(1)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(11)
	const mean = 1000
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(r.Exp(mean))
	}
	got := sum / n
	if got < mean*0.95 || got > mean*1.05 {
		t.Fatalf("Exp mean = %.1f, want within 5%% of %d", got, mean)
	}
}

func TestLnAgainstMath(t *testing.T) {
	for _, x := range []float64{0.001, 0.1, 0.5, 0.9999, 1, 1.5, 2, 10, 12345.678} {
		got := ln(x)
		want := math.Log(x)
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("ln(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(3)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRandDurationBounds(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 1000; i++ {
		d := r.Duration(10, 20)
		if d < 10 || d > 20 {
			t.Fatalf("Duration out of bounds: %v", d)
		}
	}
	if d := r.Duration(30, 30); d != 30 {
		t.Fatalf("Duration(30,30) = %v", d)
	}
	if d := r.Duration(40, 10); d != 40 {
		t.Fatalf("Duration with hi<lo should return lo, got %v", d)
	}
}
