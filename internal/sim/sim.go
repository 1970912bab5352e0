// Package sim provides a deterministic discrete-event simulation engine.
//
// All of the machine model is driven by a single Engine: a virtual clock in
// nanoseconds and a priority queue of events. Events scheduled for the same
// instant fire in the order they were scheduled, which makes every run fully
// reproducible. Timers may be cancelled or rescheduled; cancellation is
// implemented by invalidating the queued entry rather than removing it, so
// all queue operations stay O(log n). Cancelled entries are compacted away
// once they dominate the queue, and event nodes are recycled through a
// free list so steady-state dispatch allocates nothing.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since the start of the run.
type Time int64

// Common durations, expressed in Time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String formats the time with an adaptive unit, e.g. "1.500ms". The unit is
// chosen by magnitude, so negative values pick the same unit as their
// absolute value (−1.5 ms is "-1.500ms", not "-1500000ns").
func (t Time) String() string {
	abs := t
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case abs < Millisecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case abs < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", float64(t)/float64(Second))
	}
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// event is a queued callback. Nodes are recycled through the engine's free
// list once dispatched or compacted away; gen distinguishes successive
// occupants of the same node so stale Timer handles never act on the wrong
// event.
type event struct {
	when Time
	fn   func(now Time)
	gen  uint32
	dead bool
}

// entry is one slot of the event heap: the node's ordering key and its id
// in the engine's node table. It holds no pointer, so sifting entries costs
// no garbage-collector write barrier (DESIGN.md §8).
type entry struct {
	when Time
	seq  uint64
	id   int32
}

// before orders entries by (when, seq): time first, then scheduling order,
// so same-instant events fire FIFO.
func (a entry) before(b entry) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

// Timer is a cancellable handle to a scheduled callback. It is a small
// value: copy it freely. The zero Timer is inert — Cancel and Reschedule on
// it are safe no-ops — so callers can overwrite a field with Timer{} once an
// event has served its purpose.
type Timer struct {
	ev  *event
	gen uint32
	fn  func(now Time)
}

// Pending reports whether the timer's event is still queued and live (not
// yet fired, not cancelled).
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.dead
}

// Engine is the event loop. The zero value is not usable; call NewEngine.
type Engine struct {
	now   Time
	seq   uint64
	queue []entry // binary min-heap by (when, seq)

	// nodes is the node table, indexed by entry id. Nodes are allocated
	// individually and never move, so a Timer may hold a node's address;
	// the table only grows, and it never holds more nodes than were ever
	// queued at once.
	nodes []*event
	// dead counts cancelled entries still sitting in the queue; once they
	// outnumber the live ones the heap is compacted.
	dead int
	// free lists the ids of recycled nodes so the schedule/dispatch hot
	// path does not allocate.
	free []int32

	// Stats
	dispatched uint64
	// compactions and compactScanned record how much work heap compaction
	// has done: the number of compaction passes and the total entries
	// scanned across them. The mass-cancellation regression test asserts
	// scanned work stays linear in the number of cancels.
	compactions    uint64
	compactScanned uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Dispatched reports how many events have fired so far.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// Scheduled reports how many events have ever been scheduled (the running
// sequence counter, which Fingerprint folds in with Dispatched).
func (e *Engine) Scheduled() uint64 { return e.seq }

// CompactStats reports how many compaction passes have run and how many
// queue entries they scanned in total. Scanned work is amortized O(1) per
// cancel: a pass only triggers once dead entries dominate, and it removes
// all of them.
func (e *Engine) CompactStats() (passes, scanned uint64) {
	return e.compactions, e.compactScanned
}

func (e *Engine) newEvent() (int32, *event) {
	if n := len(e.free) - 1; n >= 0 {
		id := e.free[n]
		e.free = e.free[:n]
		return id, e.nodes[id]
	}
	ev := &event{}
	e.nodes = append(e.nodes, ev)
	return int32(len(e.nodes) - 1), ev
}

// recycle returns a node to the free list. Bumping gen here invalidates
// every outstanding Timer for the node's previous occupant.
func (e *Engine) recycle(id int32) {
	ev := e.nodes[id]
	ev.gen++
	ev.fn = nil
	ev.dead = false
	e.free = append(e.free, id)
}

// At schedules fn to run at absolute time t. Scheduling in the past (t <
// now) panics: it always indicates a modelling bug, and silently clamping
// would hide it.
func (e *Engine) At(t Time, fn func(now Time)) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	id, ev := e.newEvent()
	ev.when, ev.fn = t, fn
	e.push(entry{when: t, seq: e.seq, id: id})
	e.seq++
	return Timer{ev: ev, gen: ev.gen, fn: fn}
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func(now Time)) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel invalidates a scheduled event. Cancelling an already-fired or
// already-cancelled timer (or the zero Timer) is a no-op; Cancel reports
// whether the event was still pending.
func (e *Engine) Cancel(tm Timer) bool {
	ev := tm.ev
	if ev == nil || ev.gen != tm.gen || ev.dead {
		return false
	}
	ev.dead = true
	e.dead++
	// Far-future timers that are repeatedly rescheduled (core segment
	// deadlines, watchdogs) would otherwise accumulate as dead heap entries
	// for the whole run; compact once they outnumber the live ones.
	if e.dead > 32 && e.dead*2 > len(e.queue) {
		e.compact()
	}
	return true
}

// compact removes dead entries from the queue and re-establishes the heap
// property. Ordering is preserved exactly: entries compare by (when, seq)
// and both survive compaction untouched.
func (e *Engine) compact() {
	e.compactions++
	e.compactScanned += uint64(len(e.queue))
	live := e.queue[:0]
	for _, en := range e.queue {
		if e.nodes[en.id].dead {
			e.recycle(en.id)
		} else {
			live = append(live, en)
		}
	}
	e.queue = live
	e.dead = 0
	for i := len(live)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
}

// dropDeadTop discards the cancelled entry at the top of the queue. When
// cancelled timers dominate the queue — mass hedging cancellations — one
// O(n) compaction replaces O(n) sift-downs instead.
func (e *Engine) dropDeadTop() {
	if e.dead > 32 && e.dead*2 > len(e.queue) {
		e.compact()
		return
	}
	e.recycle(e.pop().id)
	e.dead--
}

// Reschedule moves a pending timer to a new absolute time, returning the
// live timer (the original is cancelled). If tm already fired or was
// cancelled, a fresh event running the same callback is scheduled anyway:
// callers use this for "extend the deadline" patterns where the deadline
// must end up at t regardless. A zero Timer carries no callback, so
// rescheduling it is a no-op returning another zero Timer (it used to panic
// deep in the event constructor).
func (e *Engine) Reschedule(tm Timer, t Time) Timer {
	e.Cancel(tm)
	if tm.fn == nil {
		return Timer{}
	}
	return e.At(t, tm.fn)
}

// Step dispatches the single next event. It reports false when the queue is
// empty.
func (e *Engine) Step() bool {
	for {
		if len(e.queue) == 0 {
			return false
		}
		ev := e.nodes[e.queue[0].id]
		if ev.dead {
			e.dropDeadTop()
			continue
		}
		top := e.pop()
		if top.when < e.now {
			panic("sim: time went backwards")
		}
		fn := ev.fn
		// Recycle before running fn so nested At calls can reuse the node;
		// any Timer still pointing here goes stale at the gen bump, exactly
		// as a fired event should.
		e.recycle(top.id)
		e.now = top.when
		e.dispatched++
		fn(e.now)
		return true
	}
}

// Run dispatches events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil dispatches events with time ≤ deadline, then sets the clock to
// the deadline (if it is ahead) and returns. Events scheduled beyond the
// deadline remain queued. Dead entries beyond the deadline are left in
// place for compaction to reclaim in bulk rather than popped one by one —
// the cluster's wire runs one short RunUntil per window, and popping
// far-future cancelled timers there was pure overhead.
func (e *Engine) RunUntil(deadline Time) {
	for len(e.queue) > 0 {
		next := e.queue[0]
		if next.when > deadline {
			break
		}
		if e.nodes[next.id].dead {
			e.dropDeadTop()
			continue
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// NextLive peeks the earliest live (non-cancelled) event time; the
// cluster's wire starts each window there. Dead entries at the top are
// discarded on the way (bulk-compacted when they dominate), so repeated
// peeks stay cheap.
func (e *Engine) NextLive() (Time, bool) {
	for len(e.queue) > 0 {
		next := e.queue[0]
		if !e.nodes[next.id].dead {
			return next.when, true
		}
		e.dropDeadTop()
	}
	return 0, false
}

// Fingerprint summarises the engine's dynamic history — current time,
// events scheduled, events dispatched — as one comparable value. Two runs
// of the same deterministic model produce the same fingerprint; a single
// event firing at a different instant or in a different order changes it.
// Replay and determinism-regression tests compare fingerprints instead of
// whole event logs. Node recycling and heap compaction are invisible here:
// they change neither seq nor the dispatch order.
func (e *Engine) Fingerprint() uint64 {
	const (
		offset = 14695981039346656037 // FNV-1a
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	mix(uint64(e.now))
	mix(e.seq)
	mix(e.dispatched)
	return h
}

// Pending reports the number of live (non-cancelled) queued events.
func (e *Engine) Pending() int { return len(e.queue) - e.dead }

// push adds an entry to the heap.
func (e *Engine) push(en entry) {
	e.queue = append(e.queue, en)
	q := e.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !en.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = en
}

// pop removes and returns the heap's minimum entry.
func (e *Engine) pop() entry {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	e.queue = q[:n]
	if n > 1 {
		e.siftDown(0)
	}
	return top
}

// siftDown moves the entry at i down to its place below.
func (e *Engine) siftDown(i int) {
	q := e.queue
	n := len(q)
	en := q[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(en) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = en
}
