// Package workload provides the application models the evaluation runs:
// the munmap microbenchmark (Figs 6–8), an Apache-like web server and an
// Nginx-like event server (Figs 1, 9, 12, Tables 4–5), PARSEC benchmark
// profiles (Figs 10, 12, Table 4), and the NUMA-migration applications —
// Graph500 BFS, PBZIP2, Metis, fluidanimate, ocean_cp (Fig 11).
package workload

import (
	"latr/internal/kernel"
)

// Barrier synchronises simulated threads in virtual time: arriving threads
// block until n have arrived, then all proceed. It is reusable
// (generation-counted), like a pthread barrier.
type Barrier struct {
	k       *kernel.Kernel
	n       int
	arrived int
	gen     uint64
	waiting []*kernel.Thread
}

// NewBarrier returns a barrier for n participants.
func NewBarrier(k *kernel.Kernel, n int) *Barrier {
	if n <= 0 {
		panic("workload: barrier size must be positive")
	}
	return &Barrier{k: k, n: n}
}

// Wait returns an Op that blocks the calling thread until all participants
// arrive.
func (b *Barrier) Wait() kernel.Op {
	return kernel.Call(func(c *kernel.Core, th *kernel.Thread, done func()) {
		b.arrived++
		if b.arrived == b.n {
			b.arrived = 0
			b.gen++
			ws := b.waiting
			b.waiting = nil
			for _, w := range ws {
				b.k.Wake(w)
			}
			done()
			return
		}
		b.waiting = append(b.waiting, th)
		c.Block(th, done)
	})
}

// Gate is a simple one-shot latch: threads wait until Open is called.
type Gate struct {
	k       *kernel.Kernel
	open    bool
	waiting []*kernel.Thread
}

// NewGate returns a closed gate.
func NewGate(k *kernel.Kernel) *Gate { return &Gate{k: k} }

// Wait returns an Op that blocks until the gate opens.
func (g *Gate) Wait() kernel.Op {
	return kernel.Call(func(c *kernel.Core, th *kernel.Thread, done func()) {
		if g.open {
			done()
			return
		}
		g.waiting = append(g.waiting, th)
		c.Block(th, done)
	})
}

// Open releases all current and future waiters.
func (g *Gate) Open() {
	g.open = true
	ws := g.waiting
	g.waiting = nil
	for _, w := range ws {
		g.k.Wake(w)
	}
}
