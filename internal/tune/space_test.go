package tune

import (
	"strings"
	"testing"

	"latr/internal/kernel"
	"latr/internal/sim"
)

// defaultEncoding is the canonical encoding of the paper genome; pinning
// it makes accidental reorderings or format drift in the ParamSpace a
// test failure rather than a silent cache/digest invalidation.
const defaultEncoding = "QueueDepth=64,ReclaimDelay=2.000ms,ReclaimPeriod=1.000ms,SweepPeriod=1.000ms," +
	"FallbackOccupancy=64,FullFlushThreshold=33,ReplicateThreshold=16,MigrateThreshold=256"

func TestEncodeDefaultsCanonical(t *testing.T) {
	s := Space()
	if got := s.Encode(s.Defaults()); got != defaultEncoding {
		t.Fatalf("default encoding drifted:\n got %s\nwant %s", got, defaultEncoding)
	}
}

func TestSpaceDefaultsMatchKernel(t *testing.T) {
	s := Space()
	def := kernel.DefaultTunables()
	for _, p := range s.Params() {
		if d := p.Get(def); d < p.Min || d > p.Max {
			t.Errorf("%s: kernel default %d outside [%d, %d]", p.Name, d, p.Min, p.Max)
		}
	}
	if err := s.Defaults().Validate(); err != nil {
		t.Fatalf("defaults fail kernel validation: %v", err)
	}
}

func TestByNameCoversEveryParam(t *testing.T) {
	s := Space()
	for _, name := range []string{
		"QueueDepth", "ReclaimDelay", "ReclaimPeriod", "SweepPeriod",
		"FallbackOccupancy", "FullFlushThreshold", "ReplicateThreshold", "MigrateThreshold",
	} {
		p, ok := s.ByName(name)
		if !ok {
			t.Fatalf("ByName(%q) missing", name)
		}
		if p.Name != name {
			t.Fatalf("ByName(%q) returned %q", name, p.Name)
		}
	}
	if s.Len() != 8 {
		t.Fatalf("space has %d params, want 8", s.Len())
	}
	if _, ok := s.ByName("NoSuchKnob"); ok {
		t.Fatal("ByName accepted an unknown knob")
	}
}

// TestMutationStaysInBounds is the satellite property test: for every
// ParamSpace field, mutation from any in-bounds starting point (including
// both bound endpoints) never leaves [Min, Max].
func TestMutationStaysInBounds(t *testing.T) {
	s := Space()
	rng := sim.NewRand(99)
	for _, p := range s.Params() {
		starts := []int64{p.Min, p.Max, p.Get(kernel.DefaultTunables())}
		for i := 0; i < 200; i++ {
			starts = append(starts, p.Random(rng))
		}
		for _, v := range starts {
			if v < p.Min || v > p.Max {
				t.Fatalf("%s: Random produced %d outside [%d, %d]", p.Name, v, p.Min, p.Max)
			}
			for i := 0; i < 50; i++ {
				m := p.Mutate(rng, v)
				if m < p.Min || m > p.Max {
					t.Fatalf("%s: Mutate(%d) = %d escapes [%d, %d]", p.Name, v, m, p.Min, p.Max)
				}
			}
		}
	}
}

// TestGenomeOperationsProduceValidGenomes checks the whole-genome ops:
// anything Random/Crossover/Mutate emits stays in bounds field by field,
// satisfies the FallbackOccupancy <= QueueDepth coupling, and passes
// kernel's Tunables.Validate — the search can never evaluate (or worse,
// panic a kernel on) an illegal genome.
func TestGenomeOperationsProduceValidGenomes(t *testing.T) {
	s := Space()
	rng := sim.NewRand(7)
	check := func(ctx string, g kernel.Tunables) {
		t.Helper()
		for _, p := range s.Params() {
			if v := p.Get(g); v < p.Min || v > p.Max {
				t.Fatalf("%s: %s=%d outside [%d, %d]", ctx, p.Name, v, p.Min, p.Max)
			}
		}
		if g.FallbackOccupancy > g.QueueDepth {
			t.Fatalf("%s: FallbackOccupancy %d > QueueDepth %d", ctx, g.FallbackOccupancy, g.QueueDepth)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: kernel validation rejects genome: %v", ctx, err)
		}
	}
	prev := s.Defaults()
	for i := 0; i < 300; i++ {
		a := s.Random(rng)
		check("Random", a)
		child := s.Crossover(rng, a, prev)
		check("Crossover", child)
		mut := s.Mutate(rng, child, 0.5)
		check("Mutate", mut)
		prev = a
	}
}

// TestRepairClampsWildGenomes feeds deliberately out-of-space values and
// checks Repair brings every one back into the search region.
func TestRepairClampsWildGenomes(t *testing.T) {
	s := Space()
	wild := kernel.Tunables{
		QueueDepth:         1 << 20,
		ReclaimDelay:       sim.Time(1),
		ReclaimPeriod:      90 * sim.Millisecond,
		SweepPeriod:        sim.Time(1),
		FallbackOccupancy:  1 << 20,
		FullFlushThreshold: 1 << 19,
		ReplicateThreshold: 1 << 19,
		MigrateThreshold:   1,
	}
	got := s.Repair(wild)
	for _, p := range s.Params() {
		if v := p.Get(got); v < p.Min || v > p.Max {
			t.Errorf("Repair left %s=%d outside [%d, %d]", p.Name, v, p.Min, p.Max)
		}
	}
	if got.FallbackOccupancy > got.QueueDepth {
		t.Errorf("Repair left FallbackOccupancy %d > QueueDepth %d", got.FallbackOccupancy, got.QueueDepth)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("repaired genome still invalid: %v", err)
	}
}

func TestEncodeIsInjectiveOverPerturbations(t *testing.T) {
	s := Space()
	base := s.Defaults()
	seen := map[string]string{s.Encode(base): "defaults"}
	for _, p := range s.Params() {
		for _, v := range []int64{p.Min, p.Max} {
			g := base
			p.Set(&g, v)
			g = s.Repair(g)
			enc := s.Encode(g)
			if !strings.Contains(enc, p.Name+"=") {
				t.Fatalf("encoding of %s perturbation lacks the field: %s", p.Name, enc)
			}
			who := p.Name + "=" + p.Format(p.Get(g))
			if prev, dup := seen[enc]; dup && prev != who {
				// Distinct genomes must encode distinctly (Repair can
				// legitimately collapse FallbackOccupancy onto QueueDepth).
				if p.Name != "FallbackOccupancy" && p.Name != "QueueDepth" {
					t.Fatalf("distinct perturbations share encoding %s (%s vs %s)", enc, prev, who)
				}
			}
			seen[enc] = who
		}
	}
}
