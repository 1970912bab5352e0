// Package obs is the span-based observability layer. Every coherence
// operation (munmap, sync change, NUMA unmap, swap eviction, exit
// teardown) opens one Span carrying provenance — policy, initiating core,
// VPN range, target mask — and the kernel and policies mark typed phases
// on it as the operation progresses through the pipeline of Fig 2/3:
//
//	initiate → send (IPI send / LATR state write)
//	         → invalidate (per-target handler / sweep)
//	         → ack (last ACK / state quiesce)
//	         → reclaim (frame + VA release)
//
// Phase durations feed per-policy metrics.PercentileHist breakdowns named
// span.<policy>.<kind>.<phase>, each mark appends one canonical line to the
// collector's timeline (the text of Figs 2 and 3), and closed spans are
// retained (up to a limit) for Chrome trace-event / Perfetto JSON export.
// Lines that belong to no span, such as syscall errors and NUMA
// migrations, go on the same timeline through Collector.Note.
//
// Spans are reference counted: the kernel holds one reference for the
// syscall itself and lazy policies retain extra references for deferred
// quiesce and reclaim work, so a span closes exactly when its last
// obligation resolves. Closed span nodes are recycled through a free list
// (like the engine's event pool), keeping the hot path allocation-lean.
// All state is derived from simulation events only, so for a given seed
// the metrics, trace and export bytes are deterministic.
package obs

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"

	"latr/internal/metrics"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/topo"
)

// Kind classifies the operation a span covers.
type Kind uint8

// Span kinds, one per coherence-triggering operation.
const (
	KindMunmap  Kind = iota // munmap(2): PTE clear + shootdown + free
	KindMadvise             // madvise(MADV_DONTNEED)-style unmap keeping the VMA
	KindSync                // mprotect/mremap/fork/CoW permission change
	KindNUMA                // AutoNUMA page migration unmap
	KindSwap                // swap-out eviction of one victim page
	KindExit                // exit_mmap address-space teardown
	KindRequest             // one cluster front-end request (routing + attempts); the cluster keeps no timeline
	KindBalloon             // hypervisor balloon reclaim of EPT backings
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindMunmap:
		return "munmap"
	case KindMadvise:
		return "madvise"
	case KindSync:
		return "sync"
	case KindNUMA:
		return "numa"
	case KindSwap:
		return "swapout"
	case KindExit:
		return "exit"
	case KindRequest:
		return "request"
	case KindBalloon:
		return "balloon"
	}
	return "unknown"
}

// frees reports whether this kind releases frames, i.e. must mark a
// reclaim phase before its span may close complete.
func (k Kind) frees() bool {
	return k == KindMunmap || k == KindMadvise || k == KindSwap || k == KindExit || k == KindBalloon
}

// Phase is one stage of a span's lifecycle.
type Phase uint8

// Lifecycle phases in pipeline order.
const (
	PhaseInitiate   Phase = iota // syscall entry, PTE clear, local invalidation
	PhaseSend                    // IPI send cost or LATR per-core state write
	PhaseInvalidate              // per-target handler invalidation or lazy sweep
	PhaseAck                     // last ACK in (sync) or state quiesced (lazy)
	PhaseReclaim                 // frame + VA release (immediate or lazy)
	PhaseStore                   // backing-store device write (swap-out only)
	numPhases
)

func (p Phase) String() string {
	switch p {
	case PhaseInitiate:
		return "initiate"
	case PhaseSend:
		return "send"
	case PhaseInvalidate:
		return "invalidate"
	case PhaseAck:
		return "ack"
	case PhaseReclaim:
		return "reclaim"
	case PhaseStore:
		return "store"
	}
	return "unknown"
}

// PhaseEvent is one recorded phase execution on one core.
type PhaseEvent struct {
	Phase Phase
	Lazy  bool // went through LATR's deferred path (state write/sweep/quiesce)
	Core  topo.CoreID
	Begin sim.Time
	Dur   sim.Time
}

// Span is the lifecycle record of one coherence operation. All methods
// are nil-safe so instrumentation sites need no span-present checks.
type Span struct {
	ID        uint64
	Kind      Kind
	Initiator topo.CoreID
	Start     pt.VPN
	Pages     int
	Targets   topo.CoreMask
	Lazy      bool // at least one phase ran lazily
	Unsafe    bool // chaos freed its memory while coherence was still pending
	// Level is the translation level the operation originated at: 0 for
	// host/bare-metal operations, 1 for guest-initiated ones (two-level
	// provenance; exported only when nonzero so flat-run goldens are
	// unchanged).
	Level    int
	OpenedAt sim.Time
	ClosedAt sim.Time
	Events   []PhaseEvent

	col  *Collector
	refs int
	seen [numPhases]bool
	next *Span // free-list link
}

// SetLevel records the translation level the operation originated at
// (1 = inside a guest). Nil-safe like every Span method.
func (s *Span) SetLevel(level int) {
	if s == nil {
		return
	}
	s.Level = level
}

// SetTargets ORs mask into the span's target set.
func (s *Span) SetTargets(mask topo.CoreMask) {
	if s == nil {
		return
	}
	s.Targets = s.Targets.Or(mask)
}

// Mark records a synchronous phase execution of dur on core, beginning at
// begin, and emits the canonical trace event for it.
func (s *Span) Mark(p Phase, core topo.CoreID, begin, dur sim.Time) {
	s.mark(p, core, begin, dur, false, false)
}

// MarkLazy records a phase that ran on LATR's deferred path.
func (s *Span) MarkLazy(p Phase, core topo.CoreID, begin, dur sim.Time) {
	s.mark(p, core, begin, dur, true, false)
}

// MarkUnsafe records a lazy phase forced through by chaos while the
// operation's memory had already been reused; it flags the span Unsafe.
func (s *Span) MarkUnsafe(p Phase, core topo.CoreID, begin, dur sim.Time) {
	s.mark(p, core, begin, dur, true, true)
}

func (s *Span) mark(p Phase, core topo.CoreID, begin, dur sim.Time, lazy, unsafe bool) {
	if s == nil || s.col == nil {
		return
	}
	if lazy {
		s.Lazy = true
	}
	if unsafe {
		s.Unsafe = true
	}
	s.seen[p] = true
	s.Events = append(s.Events, PhaseEvent{Phase: p, Lazy: lazy, Core: core, Begin: begin, Dur: dur})
	if s.col.traceLimit > 0 {
		s.col.emit(s, p, core, begin, dur, lazy, unsafe)
	}
}

// PhaseTotal sums the span's recorded events for phase p: how many times
// the phase ran and the total duration spent in it. The counterfactual
// differ (internal/tune) compares these across a knob perturbation.
func (s *Span) PhaseTotal(p Phase) (count int, total sim.Time) {
	if s == nil {
		return 0, 0
	}
	for _, e := range s.Events {
		if e.Phase == p {
			count++
			total += e.Dur
		}
	}
	return count, total
}

// PhaseLazy reports whether phase p ran at all and, if so, whether every
// recorded execution of it took the deferred (LATR) path. A span whose
// send phase ran but was not lazy went through the synchronous IPI
// fallback — the transition the counterfactual differ looks for.
func (s *Span) PhaseLazy(p Phase) (ran, lazy bool) {
	if s == nil {
		return false, false
	}
	lazy = true
	for _, e := range s.Events {
		if e.Phase == p {
			ran = true
			lazy = lazy && e.Lazy
		}
	}
	return ran, ran && lazy
}

// Retain adds one reference: an outstanding obligation (deferred quiesce,
// lazy reclaim) that must Release before the span closes.
func (s *Span) Retain() {
	if s == nil {
		return
	}
	s.refs++
}

// Release drops one reference; the last release closes the span at now.
// Releasing an already-closed span is counted as span.double_close.
func (s *Span) Release(now sim.Time) {
	if s == nil || s.col == nil {
		return
	}
	if s.refs <= 0 {
		s.col.doubleClose.Inc()
		return
	}
	s.refs--
	if s.refs == 0 {
		s.ClosedAt = now
		s.col.close(s)
	}
}

// Open reports whether the span still has outstanding references.
func (s *Span) Open() bool { return s != nil && s.refs > 0 }

// complete reports whether every phase the span's shape requires was
// marked: initiate always; send/invalidate/ack whenever remote cores had
// to be made coherent; reclaim whenever the kind frees memory.
func (s *Span) complete() bool {
	if !s.seen[PhaseInitiate] {
		return false
	}
	if !s.Targets.Empty() {
		if !s.seen[PhaseSend] || !s.seen[PhaseInvalidate] || !s.seen[PhaseAck] {
			return false
		}
	}
	if s.Kind.frees() && !s.seen[PhaseReclaim] {
		return false
	}
	return true
}

// Collector owns span allocation, metrics, the timeline and retention
// for one kernel. A nil collector hands out nil spans, so callers can
// instrument unconditionally.
type Collector struct {
	policy string
	met    *metrics.Registry

	nextID    uint64
	open      int
	spanLimit int // max retained closed spans (0 = retain nothing)
	retained  []*Span
	free      *Span

	traceLimit int    // max timeline lines (0 = keep no timeline)
	lines      []Line // in record order

	opened, closed, incomplete, dropped, doubleClose, traceDropped metrics.Counter

	// phases holds the percentile handle of each kind's phases, the span
	// total in the last column. Each starts as the zero handle and gets its
	// name on its first write (observe), so a kernel builds no name for
	// the kind/phase pairs its run never closes.
	phases [numKinds][numPhases + 1]metrics.Perc
}

// Line is one timeline entry: the canonical line of a phase mark, or a
// Note.
type Line struct {
	Time sim.Time
	Core topo.CoreID
	Cat  string // e.g. "munmap", "ipi", "sweep", "reclaim"
	Msg  string
}

// NewCollector returns a collector labelling metrics with the policy name,
// keeping a timeline of up to traceLimit lines and retaining up to
// spanLimit closed spans for export. A limit of 0 keeps none.
func NewCollector(policy string, met *metrics.Registry, traceLimit, spanLimit int) *Collector {
	return &Collector{
		policy:       policy,
		met:          met,
		traceLimit:   traceLimit,
		spanLimit:    spanLimit,
		opened:       met.NewCounter("span.opened"),
		closed:       met.NewCounter("span.closed"),
		incomplete:   met.NewCounter("span.incomplete"),
		dropped:      met.NewCounter("span.dropped"),
		doubleClose:  met.NewCounter("span.double_close"),
		traceDropped: met.NewCounter("trace.dropped"),
	}
}

// observe feeds the percentile histogram span.<policy>.<kind>.<phase>
// (p == numPhases: span.<policy>.<kind>.total), naming it on first write.
func (c *Collector) observe(k Kind, p Phase, v sim.Time) {
	h := &c.phases[k][p]
	if h.Name() == "" {
		name := "total"
		if p < numPhases {
			name = p.String()
		}
		*h = c.met.NewPerc("span." + c.policy + "." + k.String() + "." + name)
	}
	h.Observe(v)
}

// Policy returns the policy label spans are attributed to.
func (c *Collector) Policy() string {
	if c == nil {
		return ""
	}
	return c.policy
}

// Begin opens a span for one operation at now. The caller (the kernel)
// holds the initial reference and must Release it when its part of the
// operation resolves.
func (c *Collector) Begin(kind Kind, initiator topo.CoreID, start pt.VPN, pages int, now sim.Time) *Span {
	if c == nil {
		return nil
	}
	s := c.free
	if s != nil {
		c.free = s.next
		ev := s.Events[:0]
		*s = Span{Events: ev}
	} else {
		s = &Span{}
	}
	c.nextID++
	s.ID = c.nextID
	s.Kind = kind
	s.Initiator = initiator
	s.Start = start
	s.Pages = pages
	s.OpenedAt = now
	s.col = c
	s.refs = 1
	c.open++
	c.opened.Inc()
	return s
}

// close finalises a fully released span: validates its phase set, feeds
// the per-phase percentile histograms and either retains it for export or
// recycles it through the free list.
func (c *Collector) close(s *Span) {
	c.open--
	c.closed.Inc()
	if !s.complete() {
		c.incomplete.Inc()
	}
	for _, ev := range s.Events {
		c.observe(s.Kind, ev.Phase, ev.Dur)
	}
	c.observe(s.Kind, numPhases, s.ClosedAt-s.OpenedAt)
	if c.spanLimit > 0 && len(c.retained) < c.spanLimit {
		c.retained = append(c.retained, s)
		return
	}
	if c.spanLimit > 0 {
		c.dropped.Inc()
	}
	s.col = nil
	s.next = c.free
	c.free = s
}

// emit appends the canonical timeline line for one phase mark, in the
// category vocabulary of Figs 2 and 3 ("munmap", "ipi", "latr", "sweep",
// "reclaim", …).
func (c *Collector) emit(s *Span, p Phase, core topo.CoreID, begin, dur sim.Time, lazy, unsafe bool) {
	if !c.room() {
		return
	}
	addr := s.Start.Addr()
	switch p {
	case PhaseInitiate:
		switch s.Kind {
		case KindMunmap, KindMadvise:
			c.line(begin, core, "munmap", "clear PTE + local inval [%#x,+%d)", addr, s.Pages)
		case KindSync:
			c.line(begin, core, "sync", "sync change [%#x,+%d)", addr, s.Pages)
		case KindNUMA:
			c.line(begin, core, "numa", "migration unmap [%#x,+%d)", addr, s.Pages)
		case KindSwap:
			c.line(begin, core, "swapout", "evict [%#x,+%d)", addr, s.Pages)
		case KindBalloon:
			c.line(begin, core, "virt", "balloon reclaim %d backings", s.Pages)
		default:
			c.line(begin, core, "exit", "address-space teardown")
		}
	case PhaseSend:
		if lazy {
			c.line(begin, core, "latr", "state saved [%#x,+%d) mask=%v", addr, s.Pages, s.Targets)
		} else {
			c.line(begin, core, "ipi", "shootdown sent to %d cores (%d pages)", s.Targets.Count(), s.Pages)
		}
	case PhaseInvalidate:
		if lazy {
			c.line(begin, core, "sweep", "invalidate [%#x,+%d), clear bit", addr, s.Pages)
		} else {
			c.line(begin, core, "ipi", "handler: invalidate %d pages + ACK (%v)", s.Pages, dur)
		}
	case PhaseAck:
		switch {
		case unsafe:
			c.line(begin, core, "chaos", "unsafe reclaim: abandoning live state [%#x,+%d)", addr, s.Pages)
		case lazy:
			c.line(begin, core, "latr", "state quiesced [%#x,+%d)", addr, s.Pages)
		default:
			// The ack phase *spans* the spin wait; the line belongs at its
			// end, when the last ACK actually arrived.
			c.line(begin+dur, core, "ipi", "all ACKs in (wait %v)", dur)
		}
	case PhaseReclaim:
		if lazy {
			c.line(begin, core, "reclaim", "freed [%#x,+%d) after %v", addr, s.Pages, begin-s.OpenedAt)
		} else {
			c.line(begin, core, "free", "release [%#x,+%d)", addr, s.Pages)
		}
	default: // PhaseStore
		c.line(begin, core, "swapdev", "store [%#x] (%v)", addr, dur)
	}
}

// Note appends a timeline line that belongs to no span: a syscall error,
// an audit finding, a chaos window, a page migration.
func (c *Collector) Note(now sim.Time, core topo.CoreID, cat, format string, args ...any) {
	if c != nil && c.room() {
		c.line(now, core, cat, format, args...)
	}
}

// room reports whether the timeline takes one more line. A collector
// keeping no timeline takes none and counts nothing; a full timeline
// counts the line it refuses in trace.dropped, so truncation shows
// instead of silently losing the tail.
func (c *Collector) room() bool {
	if len(c.lines) < c.traceLimit {
		return true
	}
	if c.traceLimit > 0 {
		c.traceDropped.Inc()
	}
	return false
}

func (c *Collector) line(now sim.Time, core topo.CoreID, cat, format string, args ...any) {
	c.lines = append(c.lines, Line{now, core, cat, fmt.Sprintf(format, args...)})
}

// Timeline returns the timeline's lines in time order; lines of one
// instant keep the order they were recorded in.
func (c *Collector) Timeline() []Line {
	if c == nil {
		return nil
	}
	out := make([]Line, len(c.lines))
	copy(out, c.lines)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// Render formats the timeline one line per entry with the core's lane,
// mirroring the horizontal per-core lanes of Figs 2 and 3.
func (c *Collector) Render() string {
	var b strings.Builder
	for _, l := range c.Timeline() {
		fmt.Fprintf(&b, "%12v  core%-3d %-10s %s\n", l.Time, int(l.Core), l.Cat, l.Msg)
	}
	return b.String()
}

// TraceDigest returns an FNV-1a hash of the rendered timeline. Two runs
// of the same seeded simulation must produce identical digests. A
// collector keeping no timeline digests to the empty hash.
func (c *Collector) TraceDigest() uint64 {
	h := fnv.New64a()
	io.WriteString(h, c.Render())
	return h.Sum64()
}

// OpenSpans returns how many spans are currently open — the lifecycle
// invariant tests assert this reaches zero after a drained run.
func (c *Collector) OpenSpans() int {
	if c == nil {
		return 0
	}
	return c.open
}

// Retained returns the closed spans kept for export, in close order.
func (c *Collector) Retained() []*Span {
	if c == nil {
		return nil
	}
	return c.retained
}

// Digest returns an FNV-1a hash over the rendered span.* metrics — the
// per-policy phase breakdowns plus the span counters. Two runs of the
// same seeded simulation must produce identical digests.
func (c *Collector) Digest() uint64 {
	h := fnv.New64a()
	if c != nil {
		io.WriteString(h, c.met.DumpPrefix("span."))
	}
	return h.Sum64()
}

// Dump renders the span metrics, one per line, for reports.
func (c *Collector) Dump() string {
	if c == nil {
		return ""
	}
	return c.met.DumpPrefix("span.")
}

// Summary renders one human-readable line per retained span, for debug
// output and tests.
func (c *Collector) Summary() string {
	if c == nil {
		return ""
	}
	out := ""
	for _, s := range c.retained {
		out += fmt.Sprintf("span %d %s core%d [%#x,+%d) targets=%v phases=%d open=%v..%v lazy=%v\n",
			s.ID, s.Kind, int(s.Initiator), s.Start.Addr(), s.Pages, s.Targets,
			len(s.Events), s.OpenedAt, s.ClosedAt, s.Lazy)
	}
	return out
}
