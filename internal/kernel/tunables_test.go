package kernel

import (
	"strings"
	"testing"

	"latr/internal/cost"
	"latr/internal/sim"
	"latr/internal/topo"
)

func TestTunablesDefaultsValidate(t *testing.T) {
	if err := DefaultTunables().Validate(); err != nil {
		t.Fatalf("paper defaults rejected: %v", err)
	}
	if err := (Tunables{}).Validate(); err != nil {
		t.Fatalf("zero value (all defaults) rejected: %v", err)
	}
}

func TestTunablesWithDefaultsFillsEveryField(t *testing.T) {
	if got, want := (Tunables{}).WithDefaults(), DefaultTunables(); got != want {
		t.Fatalf("WithDefaults on zero = %+v, want %+v", got, want)
	}
	// Partial structs keep their set fields; FallbackOccupancy defaults to
	// the (possibly overridden) queue depth, not the paper's 64.
	p := Tunables{QueueDepth: 128}.WithDefaults()
	if p.QueueDepth != 128 || p.FallbackOccupancy != 128 {
		t.Fatalf("QueueDepth=128 defaulted to %+v, want FallbackOccupancy to track the depth", p)
	}
	if p.ReclaimDelay != 2*sim.Millisecond || p.SweepPeriod != sim.Millisecond {
		t.Fatalf("unset durations not defaulted: %+v", p)
	}
	// WithDefaults is idempotent.
	if again := p.WithDefaults(); again != p {
		t.Fatalf("WithDefaults not idempotent: %+v vs %+v", again, p)
	}
}

// TestTunablesValidateNamesEveryField is the satellite validation test:
// each field pushed out of bounds (in both directions where both exist)
// is rejected with an error that names it.
func TestTunablesValidateNamesEveryField(t *testing.T) {
	mutations := []struct {
		field string
		mut   func(*Tunables)
	}{
		{"QueueDepth", func(tt *Tunables) { tt.QueueDepth = -1 }},
		{"QueueDepth", func(tt *Tunables) { tt.QueueDepth = MaxQueueDepth + 1 }},
		{"ReclaimDelay", func(tt *Tunables) { tt.ReclaimDelay = sim.Time(1) }},
		{"ReclaimDelay", func(tt *Tunables) { tt.ReclaimDelay = MaxReclaimDelay + 1 }},
		{"ReclaimPeriod", func(tt *Tunables) { tt.ReclaimPeriod = sim.Time(-1) }},
		{"ReclaimPeriod", func(tt *Tunables) { tt.ReclaimPeriod = MaxReclaimPeriod + 1 }},
		{"SweepPeriod", func(tt *Tunables) { tt.SweepPeriod = 500 * sim.Nanosecond }},
		{"SweepPeriod", func(tt *Tunables) { tt.SweepPeriod = MaxSweepPeriod + 1 }},
		{"FallbackOccupancy", func(tt *Tunables) { tt.FallbackOccupancy = -3 }},
		{"FallbackOccupancy", func(tt *Tunables) { tt.FallbackOccupancy = tt.QueueDepth + 1 }},
		{"FullFlushThreshold", func(tt *Tunables) { tt.FullFlushThreshold = -1 }},
		{"FullFlushThreshold", func(tt *Tunables) { tt.FullFlushThreshold = MaxFullFlushThreshold + 1 }},
		{"ReplicateThreshold", func(tt *Tunables) { tt.ReplicateThreshold = -1 }},
		{"ReplicateThreshold", func(tt *Tunables) { tt.ReplicateThreshold = MaxReplThreshold + 1 }},
		{"MigrateThreshold", func(tt *Tunables) { tt.MigrateThreshold = -8 }},
		{"MigrateThreshold", func(tt *Tunables) { tt.MigrateThreshold = MaxReplThreshold + 1 }},
	}
	for _, m := range mutations {
		tt := DefaultTunables()
		m.mut(&tt)
		err := tt.Validate()
		if err == nil {
			t.Errorf("%s out of bounds accepted: %+v", m.field, tt)
			continue
		}
		if !strings.Contains(err.Error(), "Tunables."+m.field) {
			t.Errorf("%s error does not name the field: %v", m.field, err)
		}
	}
}

func TestTunablesFallbackOccupancyTracksPartialDepth(t *testing.T) {
	// With QueueDepth unset, the bound is the paper's 64.
	tt := Tunables{FallbackOccupancy: 65}
	if err := tt.Validate(); err == nil || !strings.Contains(err.Error(), "FallbackOccupancy") {
		t.Fatalf("occupancy above defaulted depth accepted: %v", err)
	}
	// With a deeper queue the same occupancy is fine.
	tt.QueueDepth = 128
	if err := tt.Validate(); err != nil {
		t.Fatalf("occupancy within explicit depth rejected: %v", err)
	}
}

func TestTunablesApplyCost(t *testing.T) {
	spec := topo.TwoSocket16()
	m := cost.Default(spec)
	base := m
	tt := Tunables{SweepPeriod: 4 * sim.Millisecond, FullFlushThreshold: 9}
	tt.ApplyCost(&m)
	if m.SchedTickPeriod != 4*sim.Millisecond || m.FullFlushThreshold != 9 {
		t.Fatalf("ApplyCost did not overlay: tick=%v flush=%d", m.SchedTickPeriod, m.FullFlushThreshold)
	}
	// Defaults overlay to exactly what cost.Default already carries.
	m2 := cost.Default(spec)
	DefaultTunables().ApplyCost(&m2)
	if m2 != base {
		t.Fatalf("default Tunables changed the cost model:\n got %+v\nwant %+v", m2, base)
	}
}

func TestOptionsTunablesPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted invalid Options.Tunables")
		}
	}()
	spec := topo.TwoSocket16()
	bad := Tunables{QueueDepth: -5}
	New(spec, cost.Default(spec), NewInstantPolicy(), Options{Tunables: &bad})
}

// TestNewStoresTunables: New keeps the defaulted knob set on the kernel,
// where policies read it at attach. Nil Options.Tunables stores the paper
// defaults and leaves a custom cost model's tick alone; a given struct is
// defaulted field by field and overlays the cost model.
func TestNewStoresTunables(t *testing.T) {
	spec := topo.TwoSocket16()
	m := cost.Default(spec)
	m.SchedTickPeriod = 4 * sim.Millisecond
	k := New(spec, m, NewInstantPolicy(), Options{})
	if k.Tunables != DefaultTunables() {
		t.Fatalf("nil Options.Tunables stored %+v", k.Tunables)
	}
	if k.Cost.SchedTickPeriod != 4*sim.Millisecond {
		t.Fatalf("nil Options.Tunables moved the custom tick to %v", k.Cost.SchedTickPeriod)
	}
	k = New(spec, m, NewInstantPolicy(), Options{Tunables: &Tunables{QueueDepth: 8}})
	want := DefaultTunables()
	want.QueueDepth, want.FallbackOccupancy = 8, 8
	if k.Tunables != want {
		t.Fatalf("stored %+v, want %+v", k.Tunables, want)
	}
	if k.Cost.SchedTickPeriod != sim.Millisecond {
		t.Fatalf("given Tunables left the tick at %v", k.Cost.SchedTickPeriod)
	}
}
