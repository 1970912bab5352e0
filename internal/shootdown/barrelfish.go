package shootdown

import (
	"latr/internal/kernel"
	"latr/internal/metrics"
	"latr/internal/obs"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/topo"
)

// Barrelfish models the multikernel's message-passing shootdown (§2.3):
// instead of IPIs, the initiator enqueues invalidation messages on per-core
// channels that remote kernels poll; remote cores invalidate without taking
// an interrupt, and the initiator still waits for every ACK. It removes the
// interrupt cost but keeps the synchronous wait — the ablation separating
// LATR's asynchrony from its transport (Table 2).
type Barrelfish struct {
	k   *kernel.Kernel
	met struct{ initiated, msgTargets, msgHandled metrics.Counter }
}

var (
	_ kernel.Policy   = (*Barrelfish)(nil)
	_ kernel.Attacher = (*Barrelfish)(nil)
)

// NewBarrelfish returns the message-passing baseline policy.
func NewBarrelfish() *Barrelfish { return &Barrelfish{} }

// Attach implements kernel.Attacher.
func (p *Barrelfish) Attach(k *kernel.Kernel) {
	p.k = k
	p.met.initiated = k.Metrics.NewCounter("shootdown.initiated")
	p.met.msgTargets = k.Metrics.NewCounter("shootdown.msg_targets")
	p.met.msgHandled = k.Metrics.NewCounter("msg.handled")
}

// Name implements kernel.Policy.
func (p *Barrelfish) Name() string { return "barrelfish" }

// shoot performs the message-passing protocol and calls done when all ACKs
// are in.
func (p *Barrelfish) shoot(c *kernel.Core, mm *kernel.MM, start pt.VPN, pages int, done func()) {
	k := p.k
	sp := c.Span()
	targets := k.ShootdownTargets(c, mm)
	n := targets.Count()
	if n == 0 {
		done()
		return
	}
	sp.SetTargets(targets)
	p.met.initiated.Inc()
	p.met.msgTargets.Add(uint64(n))

	m := &k.Cost
	sendCost := sim.Time(n) * m.MsgSendPerTarget
	sp.Mark(obs.PhaseSend, c.ID, k.Now(), sendCost)
	pending := n
	c.Busy(sendCost, false, func() {
		c.BeginSpin()
		now := k.Now()
		spinStart := now
		i := 0 // the target's position in the send order
		targets.ForEach(func(id topo.CoreID) {
			t := k.Cores[id]
			// The remote core notices the message at its next poll point;
			// polls are phase-shifted per core.
			phase := m.MsgPollPeriod * sim.Time(int(t.ID)+1) / sim.Time(k.Spec.NumCores()+1)
			wait := m.MsgPollPeriod - ((now+sim.Time(i)-phase)%m.MsgPollPeriod+m.MsgPollPeriod)%m.MsgPollPeriod
			i++
			handleAt := now + wait
			k.Engine.At(handleAt, func(hnow sim.Time) {
				var inval sim.Time
				if pages <= 0 || pages > m.FullFlushThreshold {
					t.TLB.FlushAll()
					inval = m.TLBFullFlush
				} else {
					t.TLB.InvalidateRange(t.PCIDOf(mm), start, start+pt.VPN(pages))
					inval = sim.Time(pages) * m.InvlpgLocal
				}
				cost := m.MsgHandle + inval
				t.Inject(cost)
				p.met.msgHandled.Inc()
				sp.Mark(obs.PhaseInvalidate, t.ID, hnow, cost)
				k.Engine.After(cost, func(anow sim.Time) {
					pending--
					if pending == 0 {
						sp.Mark(obs.PhaseAck, c.ID, spinStart, anow-spinStart)
						c.EndSpin(done)
					}
				})
			})
		})
	})
}

// Munmap implements kernel.Policy.
func (p *Barrelfish) Munmap(c *kernel.Core, u kernel.Unmap, done func()) {
	p.shoot(c, u.MM, u.Start, u.Pages, func() { p.k.FreeUnmapped(c, u, done) })
}

// SyncChange implements kernel.Policy.
func (p *Barrelfish) SyncChange(c *kernel.Core, mm *kernel.MM, start pt.VPN, pages int, done func()) {
	p.shoot(c, mm, start, pages, done)
}

// NUMAUnmap implements kernel.Policy.
func (p *Barrelfish) NUMAUnmap(c *kernel.Core, mm *kernel.MM, start pt.VPN, pages int, done func()) {
	c.Busy(p.k.MarkNUMAHints(c, mm, start, pages), true, func() {
		p.shoot(c, mm, start, pages, done)
	})
}

// OnTick implements kernel.Policy.
func (p *Barrelfish) OnTick(*kernel.Core) sim.Time { return 0 }

// OnContextSwitch implements kernel.Policy.
func (p *Barrelfish) OnContextSwitch(*kernel.Core) sim.Time { return 0 }

// OnPageTouch implements kernel.Policy.
func (p *Barrelfish) OnPageTouch(*kernel.Core, *kernel.MM, pt.VPN) sim.Time { return 0 }

// OnMMExit implements kernel.Policy: the message transport keeps no per-MM
// state (in-flight broadcasts reference cores, not address spaces).
func (p *Barrelfish) OnMMExit(*kernel.MM) {}
