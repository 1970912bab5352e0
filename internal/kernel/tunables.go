package kernel

import (
	"fmt"

	"latr/internal/cost"
	"latr/internal/sim"
)

// Tunables is the one validated home of every knob the LATR paper fixes
// by hand: the state-queue depth, fallback occupancy and reclaim timing of
// the LATR policy, the sweep cadence and full-flush cutoff of the cost
// model, and the replication thresholds of ptrepl. No other struct holds a
// default, a validation bound or a value for them: New stores the
// defaulted struct as Kernel.Tunables, and the LATR policy and ptrepl copy
// their knobs from it when they attach. The policy auto-tuner
// (internal/tune) searches over this one typed surface, within a narrower
// search region of its own.
//
// A zero field means "paper default"; Validate rejects anything set
// outside its bound with an error naming the field.
type Tunables struct {
	// QueueDepth is the number of LATR states per core (paper: 64).
	QueueDepth int
	// ReclaimDelay is how long freed memory parks on the lazy lists
	// before the background thread releases it (paper: 2 ms, two sweep
	// periods).
	ReclaimDelay sim.Time
	// ReclaimPeriod is how often the background reclaim thread runs
	// (paper: 1 ms).
	ReclaimPeriod sim.Time
	// SweepPeriod is the scheduler-tick interval, which is also LATR's
	// sweep cadence — states are swept at ticks and context switches
	// (paper: 1 ms ticks).
	SweepPeriod sim.Time
	// FallbackOccupancy is the per-core queue occupancy at which a new
	// operation takes the synchronous IPI path instead of recording a
	// state (paper: QueueDepth — fall back only when the array is full).
	FallbackOccupancy int
	// FullFlushThreshold is the page count above which an invalidation
	// becomes one full TLB flush (Linux heuristic the paper keeps: >32
	// pages, i.e. threshold 33).
	FullFlushThreshold int
	// ReplicateThreshold is ptrepl's adaptive trigger: remote page walks
	// from a socket before it gets a page-table replica (PR 9: 16).
	ReplicateThreshold int
	// MigrateThreshold is ptrepl's master-migration trigger: stores from
	// a non-master socket before the master moves there (PR 9: 256).
	MigrateThreshold int
}

// Tunable bounds. The maxima are generous but finite: they keep the
// auto-tuner's search space closed and catch unit mistakes (a ReclaimDelay
// of 2 seconds is a bug, not a policy).
const (
	MaxQueueDepth         = 4096
	MaxReclaimDelay       = 100 * sim.Millisecond
	MaxReclaimPeriod      = 100 * sim.Millisecond
	MaxSweepPeriod        = 100 * sim.Millisecond
	MaxFullFlushThreshold = 1 << 20
	MaxReplThreshold      = 1 << 20
)

// DefaultTunables returns the paper's hand-fixed values.
func DefaultTunables() Tunables {
	return Tunables{
		QueueDepth:         64,
		ReclaimDelay:       2 * sim.Millisecond,
		ReclaimPeriod:      sim.Millisecond,
		SweepPeriod:        sim.Millisecond,
		FallbackOccupancy:  64,
		FullFlushThreshold: 33,
		ReplicateThreshold: 16,
		MigrateThreshold:   256,
	}
}

// WithDefaults fills zero fields with the paper values and returns the
// completed struct.
func (t Tunables) WithDefaults() Tunables {
	d := DefaultTunables()
	if t.QueueDepth == 0 {
		t.QueueDepth = d.QueueDepth
	}
	if t.ReclaimDelay == 0 {
		t.ReclaimDelay = d.ReclaimDelay
	}
	if t.ReclaimPeriod == 0 {
		t.ReclaimPeriod = d.ReclaimPeriod
	}
	if t.SweepPeriod == 0 {
		t.SweepPeriod = d.SweepPeriod
	}
	if t.FallbackOccupancy == 0 {
		t.FallbackOccupancy = t.QueueDepth
	}
	if t.FullFlushThreshold == 0 {
		t.FullFlushThreshold = d.FullFlushThreshold
	}
	if t.ReplicateThreshold == 0 {
		t.ReplicateThreshold = d.ReplicateThreshold
	}
	if t.MigrateThreshold == 0 {
		t.MigrateThreshold = d.MigrateThreshold
	}
	return t
}

// Validate checks every field against its bound. Zero fields are allowed
// (they mean "default"); anything else must be inside the bound, and the
// error names the offending field.
func (t Tunables) Validate() error {
	checkInt := func(name string, v, min, max int) error {
		if v == 0 {
			return nil
		}
		if v < min || v > max {
			return fmt.Errorf("kernel: Tunables.%s %d outside [%d, %d]", name, v, min, max)
		}
		return nil
	}
	checkTime := func(name string, v, min, max sim.Time) error {
		if v == 0 {
			return nil
		}
		if v < min || v > max {
			return fmt.Errorf("kernel: Tunables.%s %v outside [%v, %v]", name, v, min, max)
		}
		return nil
	}
	if err := checkInt("QueueDepth", t.QueueDepth, 1, MaxQueueDepth); err != nil {
		return err
	}
	if err := checkTime("ReclaimDelay", t.ReclaimDelay, sim.Microsecond, MaxReclaimDelay); err != nil {
		return err
	}
	if err := checkTime("ReclaimPeriod", t.ReclaimPeriod, sim.Microsecond, MaxReclaimPeriod); err != nil {
		return err
	}
	if err := checkTime("SweepPeriod", t.SweepPeriod, sim.Microsecond, MaxSweepPeriod); err != nil {
		return err
	}
	if err := checkInt("FullFlushThreshold", t.FullFlushThreshold, 1, MaxFullFlushThreshold); err != nil {
		return err
	}
	if err := checkInt("ReplicateThreshold", t.ReplicateThreshold, 1, MaxReplThreshold); err != nil {
		return err
	}
	if err := checkInt("MigrateThreshold", t.MigrateThreshold, 1, MaxReplThreshold); err != nil {
		return err
	}
	// FallbackOccupancy is bounded by the (defaulted) queue depth: falling
	// back "later than a full queue" is unreachable.
	depth := t.QueueDepth
	if depth == 0 {
		depth = DefaultTunables().QueueDepth
	}
	if t.FallbackOccupancy != 0 && (t.FallbackOccupancy < 1 || t.FallbackOccupancy > depth) {
		return fmt.Errorf("kernel: Tunables.FallbackOccupancy %d outside [1, QueueDepth=%d]",
			t.FallbackOccupancy, depth)
	}
	return nil
}

// ApplyCost overlays the cost-model-owned knobs (sweep cadence, full-flush
// cutoff) onto m. The other knobs are read from Kernel.Tunables by the
// LATR policy and ptrepl when they attach.
func (t Tunables) ApplyCost(m *cost.Model) {
	t = t.WithDefaults()
	m.SchedTickPeriod = t.SweepPeriod
	m.FullFlushThreshold = t.FullFlushThreshold
}
