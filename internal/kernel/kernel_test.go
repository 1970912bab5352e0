package kernel

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"latr/internal/cost"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/tlb"
	"latr/internal/topo"
)

func testKernel() *Kernel {
	spec := topo.Custom(2, 2) // 4 cores, 2 nodes
	spec.MemPerNodeBytes = 64 << 20
	return New(spec, cost.Default(spec), NewInstantPolicy(), Options{CheckInvariants: true, Seed: 1})
}

// script runs a fixed list of op-producing steps, then exits.
type script struct {
	steps []func(th *Thread) Op
	i     int
}

func (s *script) Next(_ sim.Time, th *Thread) Op {
	if s.i >= len(s.steps) {
		return Op{}
	}
	op := s.steps[s.i](th)
	s.i++
	return op
}

func run(k *Kernel, d sim.Time) { k.Run(d) }

func TestComputeTiming(t *testing.T) {
	k := testKernel()
	p := k.NewProcess()
	var endAt sim.Time
	p.Spawn(0, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Compute(10 * sim.Microsecond) },
		func(*Thread) Op { endAt = k.Now(); return Op{} },
	}})
	run(k, sim.Millisecond)
	want := k.Cost.ContextSwitch + 10*sim.Microsecond
	if endAt != want {
		t.Fatalf("compute finished at %v, want %v", endAt, want)
	}
	if k.LiveThreads() != 0 {
		t.Fatal("thread did not exit")
	}
}

func TestMmapTouchMunmap(t *testing.T) {
	k := testKernel()
	p := k.NewProcess()
	var base pt.VPN
	var faults []int
	th := p.Spawn(0, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Mmap(4, true).Populate(-1) },
		func(th *Thread) Op {
			if th.LastErr != nil {
				t.Fatalf("mmap failed: %v", th.LastErr)
			}
			base = th.LastAddr
			return TouchRange(base, 4, true)
		},
		func(th *Thread) Op { faults = append(faults, th.LastFault); return Munmap(base, 4) },
		func(th *Thread) Op {
			if th.LastErr != nil {
				t.Fatalf("munmap failed: %v", th.LastErr)
			}
			return TouchRange(base, 4, false)
		},
		func(th *Thread) Op { faults = append(faults, th.LastFault); return Op{} },
	}})
	run(k, 10*sim.Millisecond)
	if th.State != Done {
		t.Fatalf("thread state = %d", th.State)
	}
	if len(faults) != 2 || faults[0] != 0 {
		t.Fatalf("faults before munmap = %v, want [0 4]", faults)
	}
	if faults[1] != 4 {
		t.Fatalf("touching freed range gave %d faults, want 4 (segfault per page)", faults[1])
	}
	if got := k.Alloc.TotalInUse(); got != 0 {
		t.Fatalf("frames leaked: %d in use", got)
	}
	if k.Metrics.Counter("sys.munmap") != 1 || k.Metrics.Counter("sys.mmap") != 1 {
		t.Fatal("syscall counters wrong")
	}
}

func TestDemandPagingFirstTouchNode(t *testing.T) {
	k := testKernel()
	p := k.NewProcess()
	var base pt.VPN
	// Core 2 is on node 1.
	p.Spawn(2, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Mmap(3, true) },
		func(th *Thread) Op { base = th.LastAddr; return TouchRange(base, 3, true) },
	}})
	run(k, 10*sim.Millisecond)
	if got := k.Metrics.Counter("fault.demand"); got != 3 {
		t.Fatalf("demand faults = %d, want 3", got)
	}
	mm := p.MM
	for i := 0; i < 3; i++ {
		e, ok := mm.PT.Get(base + pt.VPN(i))
		if !ok {
			t.Fatalf("page %d not mapped after touch", i)
		}
		if node := k.Alloc.NodeOf(e.PFN); node != 1 {
			t.Fatalf("first-touch allocated on node %d, want 1", node)
		}
	}
}

func TestMadviseKeepsVMA(t *testing.T) {
	k := testKernel()
	p := k.NewProcess()
	var base pt.VPN
	var faultsAfter int
	p.Spawn(0, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Mmap(2, true).Populate(-1) },
		func(th *Thread) Op { base = th.LastAddr; return Madvise(base, 2) },
		// Touch again: demand-faults back in (no segfault) because the VMA
		// survived the madvise.
		func(*Thread) Op { return TouchRange(base, 2, true) },
		func(th *Thread) Op { faultsAfter = th.LastFault; return Op{} },
	}})
	run(k, 10*sim.Millisecond)
	if faultsAfter != 0 {
		t.Fatalf("segfaults after madvise+touch = %d, want 0", faultsAfter)
	}
	if got := k.Metrics.Counter("fault.demand"); got != 2 {
		t.Fatalf("demand faults = %d, want 2 (re-population)", got)
	}
}

func TestSemContention(t *testing.T) {
	k := testKernel()
	p := k.NewProcess()
	// Thread A holds mmap_sem for a long populate; thread B's mmap must
	// wait and the contention counter must show it.
	p.Spawn(0, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Mmap(10000, true).Populate(-1) },
	}})
	var bDone sim.Time
	p.Spawn(1, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Mmap(1, true) },
		func(*Thread) Op { bDone = k.Now(); return Op{} },
	}})
	run(k, 50*sim.Millisecond)
	if k.Metrics.Counter("sem.contended") == 0 {
		t.Fatal("expected mmap_sem contention")
	}
	// A holds the sem for 10000 pages * MmapSetupPerPage = 1.8ms; B cannot
	// finish before that.
	hold := sim.Time(10000) * k.Cost.MmapSetupPerPage
	if bDone < hold {
		t.Fatalf("B finished at %v, before A released at ~%v", bDone, hold)
	}
}

func TestSleepAndYield(t *testing.T) {
	k := testKernel()
	p := k.NewProcess()
	var wake sim.Time
	p.Spawn(0, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Sleep(2 * sim.Millisecond) },
		func(*Thread) Op { wake = k.Now(); return Yield() },
		func(*Thread) Op { return Op{} },
	}})
	run(k, 20*sim.Millisecond)
	if wake < 2*sim.Millisecond {
		t.Fatalf("woke at %v, want >= 2ms", wake)
	}
	if k.LiveThreads() != 0 {
		t.Fatal("yielded thread never resumed")
	}
}

func TestPreemptionInterleavesThreads(t *testing.T) {
	k := testKernel()
	p := k.NewProcess()
	mk := func() (*Thread, *sim.Time) {
		end := new(sim.Time)
		th := p.Spawn(0, &script{steps: []func(*Thread) Op{
			func(*Thread) Op { return Compute(20 * sim.Millisecond) },
			func(*Thread) Op { *end = k.Now(); return Op{} },
		}})
		return th, end
	}
	_, endA := mk()
	_, endB := mk()
	run(k, 200*sim.Millisecond)
	if *endA == 0 || *endB == 0 {
		t.Fatal("threads did not finish")
	}
	if k.Metrics.Counter("sched.preemptions") == 0 {
		t.Fatal("no preemptions for two CPU hogs on one core")
	}
	// With round-robin both should finish near 40ms, not 20/40 serially.
	if *endB-*endA > 15*sim.Millisecond && *endA-*endB > 15*sim.Millisecond {
		t.Fatalf("threads ran serially: A=%v B=%v", *endA, *endB)
	}
}

func TestSchedulerTicksAccrue(t *testing.T) {
	k := testKernel()
	p := k.NewProcess()
	p.Spawn(0, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Compute(10 * sim.Millisecond) },
	}})
	run(k, 10*sim.Millisecond)
	ticks := k.Metrics.Counter("sched.ticks")
	// 4 cores x 10 ticks.
	if ticks < 35 || ticks > 45 {
		t.Fatalf("ticks = %d, want ~40", ticks)
	}
}

func TestTicklessSkipsIdleCores(t *testing.T) {
	spec := topo.Custom(2, 2)
	spec.MemPerNodeBytes = 64 << 20
	k := New(spec, cost.Default(spec), NewInstantPolicy(), Options{Tickless: true, Seed: 1})
	p := k.NewProcess()
	p.Spawn(0, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Compute(10 * sim.Millisecond) },
	}})
	run(k, 10*sim.Millisecond)
	skipped := k.Metrics.Counter("sched.ticks_skipped_idle")
	if skipped < 20 {
		t.Fatalf("idle ticks skipped = %d, want ~30 (3 idle cores)", skipped)
	}
}

func TestSendShootdownIPIs(t *testing.T) {
	k := testKernel()
	p := k.NewProcess()
	mm := p.MM
	// Put stale entries on cores 1 and 2.
	k.Cores[1].TLB.Insert(tlb.Tag{}, 100, 1000, true)
	k.Cores[2].TLB.Insert(tlb.Tag{}, 100, 1000, true)
	var doneAt sim.Time
	k.Engine.At(0, func(sim.Time) {
		k.SendShootdownIPIs(k.Cores[0], mm, 100, 1, topo.MaskOf(1, 2), func() { doneAt = k.Now() })
	})
	k.Run(sim.Millisecond)
	if doneAt == 0 {
		t.Fatal("shootdown never completed")
	}
	if k.Cores[1].TLB.Has(tlb.Tag{}, 100) || k.Cores[2].TLB.Has(tlb.Tag{}, 100) {
		t.Fatal("remote entries survived the shootdown")
	}
	// Lower bound: send costs + 1-hop delivery (core 2 is cross-socket) +
	// handler.
	min := k.Cost.IPISendBase + k.Cost.IPIDeliverLatency(1)
	if doneAt < min {
		t.Fatalf("shootdown done at %v, faster than physically possible (%v)", doneAt, min)
	}
	if k.Metrics.Counter("ipi.handled") != 2 {
		t.Fatalf("handled = %d", k.Metrics.Counter("ipi.handled"))
	}
}

// TestShootdownRecordsReusedAndExclusive checks a core's shootdown
// records: a second IPI round or synchronous free after the first has
// finished reuses the first's record, and starting one while another is
// in flight panics.
func TestShootdownRecordsReusedAndExclusive(t *testing.T) {
	for _, tc := range []struct {
		name, panics string
		start        func(k *Kernel, mm *MM)
	}{
		{"ipi-round", "IPI round while one is in flight", func(k *Kernel, mm *MM) {
			k.SendShootdownIPIs(k.Cores[0], mm, 100, 1, topo.MaskOf(1, 2), func() {})
		}},
		{"free", "unmap while one is in flight", func(k *Kernel, mm *MM) {
			k.FreeUnmapped(k.Cores[0], Unmap{MM: mm, KeepVMA: true}, func() {})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := testKernel()
			mm := k.NewProcess().MM
			c := k.Cores[0]
			var ipi *ipiRound
			var unmap *syncUnmap
			for i := 0; i < 2; i++ {
				tc.start(k, mm)
				k.Run(k.Now() + sim.Millisecond)
				if i == 0 {
					ipi, unmap = c.ipi, c.unmap
				}
			}
			if c.ipi != ipi || c.unmap != unmap {
				t.Error("the second run did not reuse the first's record")
			}
			tc.start(k, mm)
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), tc.panics) {
					t.Errorf("starting a second while one is in flight: recovered %v, want a panic naming %q", r, tc.panics)
				}
			}()
			tc.start(k, mm)
		})
	}
}

func TestShootdownFullFlushOverThreshold(t *testing.T) {
	k := testKernel()
	p := k.NewProcess()
	k.Cores[1].TLB.Insert(tlb.Tag{}, 5000, 77, true) // unrelated entry
	k.Engine.At(0, func(sim.Time) {
		k.SendShootdownIPIs(k.Cores[0], p.MM, 0, 64, topo.MaskOf(1), func() {})
	})
	k.Run(sim.Millisecond)
	if k.Cores[1].TLB.Len() != 0 {
		t.Fatal("64-page shootdown should fully flush the remote TLB")
	}
}

func TestLazyTLBModeSkipsIdleCores(t *testing.T) {
	k := testKernel()
	p := k.NewProcess()
	// A thread runs on core 1 and exits, leaving core 1 idle in lazy-TLB
	// mode with the mm still loaded.
	p.Spawn(1, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Compute(sim.Microsecond) },
	}})
	run(k, sim.Millisecond)
	if !p.MM.CPUMask.Has(1) {
		t.Fatal("idle core should keep the mm in its cpumask (lazy TLB)")
	}
	var targets topo.CoreMask
	k.Engine.At(k.Now(), func(sim.Time) {
		targets = k.ShootdownTargets(k.Cores[0], p.MM)
	})
	k.Run(k.Now() + sim.Microsecond)
	if targets.Has(1) {
		t.Fatal("lazy-TLB idle core included in shootdown targets")
	}
	if !k.Cores[1].deferredFlush {
		t.Fatal("skipped core not marked for deferred flush")
	}
	// Next dispatch on core 1 must pay the full flush.
	p.Spawn(1, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Compute(sim.Microsecond) },
	}})
	run(k, k.Now()+sim.Millisecond)
	if k.Metrics.Counter("shootdown.deferred_flush") != 1 {
		t.Fatal("deferred flush not performed on wake")
	}
}

func TestMprotectBlocksWrites(t *testing.T) {
	k := testKernel()
	p := k.NewProcess()
	var base pt.VPN
	var writeFaults int
	p.Spawn(0, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Mmap(2, true).Populate(-1) },
		func(th *Thread) Op { base = th.LastAddr; return Mprotect(base, 2, false) },
		func(*Thread) Op { return TouchRange(base, 2, true) },
		func(th *Thread) Op { writeFaults = th.LastFault; return TouchRange(base, 2, false) },
		func(th *Thread) Op {
			if th.LastFault != 0 {
				t.Errorf("reads faulted after mprotect: %d", th.LastFault)
			}
			return Op{}
		},
	}})
	run(k, 10*sim.Millisecond)
	if writeFaults != 2 {
		t.Fatalf("write faults = %d, want 2", writeFaults)
	}
}

func TestMremapMovesMapping(t *testing.T) {
	k := testKernel()
	p := k.NewProcess()
	var oldBase, newBase pt.VPN
	var oldFaults, newFaults int
	p.Spawn(0, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Mmap(2, true).Populate(-1) },
		func(th *Thread) Op { oldBase = th.LastAddr; return TouchRange(oldBase, 2, true) },
		func(*Thread) Op { return Mremap(oldBase, 2) },
		func(th *Thread) Op { newBase = th.LastAddr; return TouchRange(newBase, 2, true) },
		func(th *Thread) Op { newFaults = th.LastFault; return TouchRange(oldBase, 2, false) },
		func(th *Thread) Op { oldFaults = th.LastFault; return Op{} },
	}})
	run(k, 10*sim.Millisecond)
	if newBase == oldBase {
		t.Fatal("mremap did not move the mapping")
	}
	if newFaults != 0 {
		t.Fatalf("new range faulted %d times", newFaults)
	}
	if oldFaults != 2 {
		t.Fatalf("old range should segfault: %d faults, want 2", oldFaults)
	}
}

func TestBadSyscallArgs(t *testing.T) {
	k := testKernel()
	p := k.NewProcess()
	var errs []error
	p.Spawn(0, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Mmap(0, false) },
		func(th *Thread) Op { errs = append(errs, th.LastErr); return Munmap(999999, 4) },
		func(th *Thread) Op { errs = append(errs, th.LastErr); return Op{} },
	}})
	run(k, 10*sim.Millisecond)
	if len(errs) != 2 || errs[0] == nil || errs[1] == nil {
		t.Fatalf("errors = %v, want two non-nil", errs)
	}
}

// TestBadOpArgsFailTheOp checks that negative durations and page counts,
// and page counts an Op's 32-bit count cannot hold, fail the op with
// ErrBadArg, without panicking, and that the thread goes on to its next
// op; zero stays a valid (empty) op.
func TestBadOpArgsFailTheOp(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   Op
		want error
	}{
		{"compute -5", Compute(-5), ErrBadArg},
		{"sleep -1", Sleep(-1), ErrBadArg},
		{"touch range -1 pages", TouchRange(0x1000, -1, false), ErrBadArg},
		{"mmap 2^32+1 pages", Mmap(1<<32+1, true), ErrBadArg},
		{"compute 0", Compute(0), nil},
		{"sleep 0", Sleep(0), nil},
		{"touch range 0 pages", TouchRange(0x1000, 0, false), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := testKernel()
			var err error
			ranNext := false
			th := k.NewProcess().Spawn(0, &script{steps: []func(*Thread) Op{
				func(*Thread) Op { return tc.op },
				func(th *Thread) Op { err = th.LastErr; return Compute(sim.Microsecond) },
				func(*Thread) Op { ranNext = true; return Op{} },
			}})
			run(k, sim.Millisecond)
			if !errors.Is(err, tc.want) {
				t.Errorf("LastErr = %v, want %v", err, tc.want)
			}
			if !ranNext || th.State != Done {
				t.Errorf("thread did not continue past the op (ran next op: %v, state %d)", ranNext, th.State)
			}
		})
	}
}

func TestInvariantCatchesPrematureReuse(t *testing.T) {
	// A deliberately broken policy frees frames without invalidating remote
	// TLBs. Without the auditor the shadow tracker must panic when the
	// frame is reallocated; with it, the reuse is reported on core 1,
	// which still caches the page, at the page's VPN.
	for _, audit := range []bool{false, true} {
		spec := topo.Custom(1, 2)
		spec.MemPerNodeBytes = 1 << 20 // 256 frames: force quick reuse
		k := New(spec, cost.Default(spec), brokenPolicy{}, Options{CheckInvariants: true, Audit: audit, Seed: 1})
		p := k.NewProcess()
		var base pt.VPN
		p.Spawn(0, &script{steps: []func(*Thread) Op{
			func(*Thread) Op { return Mmap(1, true).Populate(-1) },
			func(th *Thread) Op { base = th.LastAddr; return TouchRange(base, 1, true) },
			func(*Thread) Op { return Compute(sim.Microsecond) },
			func(*Thread) Op { return Compute(sim.Microsecond) },
		}})
		// Second thread on core 1 caches the page, then core 0 munmaps and
		// remmaps until the freed frame is reused.
		p.Spawn(1, &script{steps: []func(*Thread) Op{
			func(*Thread) Op { return Compute(100 * sim.Microsecond) },
			func(*Thread) Op { return TouchRange(base, 1, false) },
			func(*Thread) Op { return Sleep(5 * sim.Millisecond) },
			func(*Thread) Op { return Op{} },
		}})
		p2prog := &script{steps: []func(*Thread) Op{
			func(*Thread) Op { return Sleep(200 * sim.Microsecond) },
			func(*Thread) Op { return Munmap(base, 1) },
			func(*Thread) Op { return Mmap(200, true).Populate(-1) },
			func(*Thread) Op { return Mmap(200, true).Populate(-1) },
			func(*Thread) Op { return Op{} },
		}}
		p.Spawn(0, p2prog)
		if !audit {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("invariant checker did not catch premature frame reuse")
					}
				}()
				run(k, 20*sim.Millisecond)
			}()
			continue
		}
		run(k, 20*sim.Millisecond)
		var reuses []tlb.Violation
		for _, v := range k.Audit.Violations() {
			if v.Kind == tlb.ViolationFrameReuse {
				reuses = append(reuses, v)
			}
		}
		if len(reuses) != 1 || reuses[0].Core != 1 || reuses[0].VPN != base {
			t.Fatalf("frame-reuse violations %v, want one on core 1 at vpn %#x", reuses, uint64(base))
		}
	}
}

// brokenPolicy frees frames immediately without any remote invalidation —
// the bug class the invariant checker exists to catch.
type brokenPolicy struct{ inner InstantPolicy }

func (b brokenPolicy) Name() string { return "broken" }
func (b brokenPolicy) Munmap(c *Core, u Unmap, done func()) {
	c.k.ReleaseFrames(u.Frames)
	if !u.KeepVMA {
		c.k.ReleaseVA(u.MM, u.Start, u.Pages)
	}
	done()
}
func (b brokenPolicy) SyncChange(c *Core, mm *MM, start pt.VPN, pages int, done func()) { done() }
func (b brokenPolicy) NUMAUnmap(c *Core, mm *MM, start pt.VPN, pages int, done func())  { done() }
func (b brokenPolicy) OnTick(*Core) sim.Time                                            { return 0 }
func (b brokenPolicy) OnContextSwitch(*Core) sim.Time                                   { return 0 }
func (b brokenPolicy) OnPageTouch(*Core, *MM, pt.VPN) sim.Time                          { return 0 }
func (b brokenPolicy) OnMMExit(*MM)                                                     {}

func TestRWSemFIFOWriterPriority(t *testing.T) {
	k := testKernel()
	s := NewRWSem(k)
	p := k.NewProcess()
	// Use raw sem API with synthetic threads parked as current.
	var order []string
	thA := p.Spawn(0, &script{steps: []func(*Thread) Op{
		func(*Thread) Op { return Compute(sim.Microsecond) },
	}})
	_ = thA
	k.Engine.At(0, func(sim.Time) {
		s.AcquireRead(k.Cores[0], nil, func() { order = append(order, "r1") })
		if !func() bool { return s.Readers() == 1 }() {
			t.Error("reader not admitted")
		}
		s.ReleaseRead()
		s.AcquireWrite(k.Cores[0], nil, func() { order = append(order, "w") })
		if !s.HeldForWrite() {
			t.Error("writer not admitted on free sem")
		}
		s.ReleaseWrite()
	})
	k.Run(sim.Millisecond)
	if len(order) != 2 || order[0] != "r1" || order[1] != "w" {
		t.Fatalf("order = %v", order)
	}
}

func TestIRQOffWindowDelaysIPI(t *testing.T) {
	k := testKernel()
	p := k.NewProcess()
	mm := p.MM
	// Core 1 executes a long IRQ-off segment; an IPI arriving mid-segment
	// must be handled only after the segment ends.
	var ackAt sim.Time
	k.Engine.At(0, func(sim.Time) {
		k.Cores[1].busy(100*sim.Microsecond, true, func() {})
	})
	k.Engine.At(10, func(sim.Time) {
		k.SendShootdownIPIs(k.Cores[0], mm, 1, 1, topo.MaskOf(1), func() { ackAt = k.Now() })
	})
	k.Run(sim.Millisecond)
	if ackAt < 100*sim.Microsecond {
		t.Fatalf("ACK at %v arrived before the IRQ-off window ended (100us)", ackAt)
	}
	if k.Metrics.Counter("ipi.delayed_irqoff") != 1 {
		t.Fatal("delayed-IRQ counter not incremented")
	}
}
