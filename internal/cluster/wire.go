package cluster

import (
	"cmp"
	"slices"

	"latr/internal/sim"
)

// wire carries every front-end↔node message over the one engine the
// fleet runs on. A send is not scheduled when it is made: it is held
// until the window it was sent in ends, then scheduled with that
// window's other sends in (delivery time, sender) order. A window is at
// most netDelay long and every message takes netDelay, so none can land
// inside the window that sent it.
//
// The held delivery is part of the wire model, not an optimization. A
// delivered message gets its engine tie sequence at the window barrier,
// after every event already queued for the same instant. Scheduling each
// send directly would give it the sequence of its send instead, which
// reorders same-instant events and moves cluster results (DESIGN.md §13
// has the measurement).
type wire struct {
	eng     *sim.Engine
	pending []message
}

// message is one held send. src is the sender: 0 for the front-end, 1+i
// for node i.
type message struct {
	at  sim.Time
	src int
	fn  func(now sim.Time)
}

// send holds fn for delivery netDelay from now.
func (w *wire) send(src int, fn func(now sim.Time)) {
	w.pending = append(w.pending, message{w.eng.Now() + netDelay, src, fn})
}

// runUntil runs the engine to deadline one window at a time. A window
// runs every event before the earliest live event time plus netDelay,
// then delivers the sends it held.
func (w *wire) runUntil(deadline sim.Time) {
	for {
		t0, ok := w.eng.NextLive()
		if !ok || t0 > deadline {
			break
		}
		w.eng.RunUntil(min(t0+netDelay-1, deadline))
		// pending holds sends in execution order, so a stable sort keeps
		// each sender's own sends in the order it made them.
		slices.SortStableFunc(w.pending, func(a, b message) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.src, b.src))
		})
		for _, m := range w.pending {
			w.eng.At(m.at, m.fn)
		}
		clear(w.pending)
		w.pending = w.pending[:0]
	}
	w.eng.RunUntil(deadline)
}
