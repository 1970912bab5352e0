// Package tune searches LATR's parameter space. The paper fixes its knobs
// by hand — 64 states per core, 2 ms reclaim delay, 1 ms sweep cadence,
// fallback only on a full queue, the >32-page full-flush cutoff — and PR 9
// added two more hand-fixed values (ptrepl's replicate/migrate
// thresholds). This package treats those eight values as a typed
// ParamSpace over kernel.Tunables and provides:
//
//   - a seeded evolutionary search (tournament selection, uniform
//     crossover, bounded mutation) against a multi-objective fitness —
//     munmap/migration overhead, memcached p99 request latency, and
//     fallback-IPI rate — over a (workload × topology) cell matrix,
//     fanned through internal/fan with byte-identical results at any
//     worker count;
//   - a counterfactual mode on the span layer: re-run a recorded seed
//     with one knob perturbed and diff the resulting coherence spans
//     ("which shootdowns changed phase durations, which quiesces newly
//     fell back to sync IPIs").
package tune

import (
	"fmt"
	"strings"

	"latr/internal/kernel"
	"latr/internal/sim"
)

// Kind distinguishes integer-valued knobs from duration-valued ones.
type Kind int

// Parameter kinds.
const (
	KindInt Kind = iota
	KindDuration
)

// Param describes one tunable dimension of kernel.Tunables: its canonical
// name, value kind and inclusive bounds. The paper default is the field's
// value in kernel.DefaultTunables. Durations are carried as int64
// nanoseconds so the search arithmetic is uniform.
type Param struct {
	Name     string
	Kind     Kind
	Min, Max int64

	get func(kernel.Tunables) int64
	set func(*kernel.Tunables, int64)
}

// Get reads the param's value from t.
func (p Param) Get(t kernel.Tunables) int64 { return p.get(t) }

// Set writes v into t, clamped to the param's bounds.
func (p Param) Set(t *kernel.Tunables, v int64) { p.set(t, p.Clamp(v)) }

// Clamp bounds v to [Min, Max].
func (p Param) Clamp(v int64) int64 {
	if v < p.Min {
		return p.Min
	}
	if v > p.Max {
		return p.Max
	}
	return v
}

// Format renders a value of this param for tables and encodings.
func (p Param) Format(v int64) string {
	if p.Kind == KindDuration {
		return sim.Time(v).String()
	}
	return fmt.Sprintf("%d", v)
}

// Random draws a uniform value in [Min, Max].
func (p Param) Random(rng *sim.Rand) int64 {
	return p.Min + rng.Int63n(p.Max-p.Min+1)
}

// Mutate draws a bounded perturbation of v: uniform over [v/2, 2v]
// clamped to the param's bounds, so steps are local in scale and can
// never leave the space.
func (p Param) Mutate(rng *sim.Rand, v int64) int64 {
	lo, hi := p.Clamp(v/2), p.Clamp(2*v)
	if hi <= lo {
		return lo
	}
	return lo + rng.Int63n(hi-lo+1)
}

// ParamSpace is the ordered set of tunable dimensions. The order is the
// canonical encoding order; every genome operation walks it.
type ParamSpace struct {
	params []Param
}

// Space returns the canonical parameter space over kernel.Tunables. The
// bounds are tighter than kernel's validation maxima: they describe the
// region worth searching, not merely the region that is legal.
func Space() ParamSpace {
	return ParamSpace{params: []Param{
		{
			Name: "QueueDepth", Kind: KindInt, Min: 4, Max: 512,
			get: func(t kernel.Tunables) int64 { return int64(t.QueueDepth) },
			set: func(t *kernel.Tunables, v int64) { t.QueueDepth = int(v) },
		},
		{
			Name: "ReclaimDelay", Kind: KindDuration,
			Min: int64(100 * sim.Microsecond), Max: int64(16 * sim.Millisecond),
			get: func(t kernel.Tunables) int64 { return int64(t.ReclaimDelay) },
			set: func(t *kernel.Tunables, v int64) { t.ReclaimDelay = sim.Time(v) },
		},
		{
			Name: "ReclaimPeriod", Kind: KindDuration,
			Min: int64(100 * sim.Microsecond), Max: int64(8 * sim.Millisecond),
			get: func(t kernel.Tunables) int64 { return int64(t.ReclaimPeriod) },
			set: func(t *kernel.Tunables, v int64) { t.ReclaimPeriod = sim.Time(v) },
		},
		{
			Name: "SweepPeriod", Kind: KindDuration,
			Min: int64(250 * sim.Microsecond), Max: int64(4 * sim.Millisecond),
			get: func(t kernel.Tunables) int64 { return int64(t.SweepPeriod) },
			set: func(t *kernel.Tunables, v int64) { t.SweepPeriod = sim.Time(v) },
		},
		{
			Name: "FallbackOccupancy", Kind: KindInt, Min: 1, Max: 512,
			get: func(t kernel.Tunables) int64 { return int64(t.FallbackOccupancy) },
			set: func(t *kernel.Tunables, v int64) { t.FallbackOccupancy = int(v) },
		},
		{
			Name: "FullFlushThreshold", Kind: KindInt, Min: 1, Max: 1024,
			get: func(t kernel.Tunables) int64 { return int64(t.FullFlushThreshold) },
			set: func(t *kernel.Tunables, v int64) { t.FullFlushThreshold = int(v) },
		},
		{
			Name: "ReplicateThreshold", Kind: KindInt, Min: 1, Max: 256,
			get: func(t kernel.Tunables) int64 { return int64(t.ReplicateThreshold) },
			set: func(t *kernel.Tunables, v int64) { t.ReplicateThreshold = int(v) },
		},
		{
			Name: "MigrateThreshold", Kind: KindInt, Min: 8, Max: 4096,
			get: func(t kernel.Tunables) int64 { return int64(t.MigrateThreshold) },
			set: func(t *kernel.Tunables, v int64) { t.MigrateThreshold = int(v) },
		},
	}}
}

// Params returns the dimensions in canonical order.
func (s ParamSpace) Params() []Param { return s.params }

// Len is the number of dimensions.
func (s ParamSpace) Len() int { return len(s.params) }

// ByName finds a param by its canonical name.
func (s ParamSpace) ByName(name string) (Param, bool) {
	for _, p := range s.params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// Defaults returns the paper genome.
func (s ParamSpace) Defaults() kernel.Tunables { return kernel.DefaultTunables() }

// Repair clamps every field into its bound and enforces the one
// cross-field constraint (FallbackOccupancy cannot exceed QueueDepth).
// Crossover and mutation always finish with Repair, so every genome the
// search evaluates passes kernel's Tunables.Validate.
func (s ParamSpace) Repair(t kernel.Tunables) kernel.Tunables {
	out := t.WithDefaults()
	for _, p := range s.params {
		p.Set(&out, p.Get(out))
	}
	if out.FallbackOccupancy > out.QueueDepth {
		out.FallbackOccupancy = out.QueueDepth
	}
	return out
}

// Encode renders the canonical genome string: every param in space order
// as name=value, comma-separated. Two genomes are equal exactly when
// their encodings are; the search history digest hashes these strings.
func (s ParamSpace) Encode(t kernel.Tunables) string {
	var b strings.Builder
	for i, p := range s.params {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.Name)
		b.WriteByte('=')
		b.WriteString(p.Format(p.Get(t)))
	}
	return b.String()
}

// Random draws a uniform genome from the space (repaired).
func (s ParamSpace) Random(rng *sim.Rand) kernel.Tunables {
	t := kernel.DefaultTunables()
	for _, p := range s.params {
		p.Set(&t, p.Random(rng))
	}
	return s.Repair(t)
}

// Crossover builds a child taking each field from parent a or b with equal
// probability (uniform crossover), then repairs it.
func (s ParamSpace) Crossover(rng *sim.Rand, a, b kernel.Tunables) kernel.Tunables {
	child := kernel.DefaultTunables()
	for _, p := range s.params {
		v := p.Get(a)
		if rng.Intn(2) == 1 {
			v = p.Get(b)
		}
		p.Set(&child, v)
	}
	return s.Repair(child)
}

// Mutate perturbs each field independently with probability rate, using
// the param's bounded local step, then repairs the genome.
func (s ParamSpace) Mutate(rng *sim.Rand, t kernel.Tunables, rate float64) kernel.Tunables {
	out := t
	for _, p := range s.params {
		if rng.Float64() < rate {
			p.Set(&out, p.Mutate(rng, p.Get(out)))
		}
	}
	return s.Repair(out)
}
