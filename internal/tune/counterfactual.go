package tune

import (
	"fmt"
	"strings"

	"latr/internal/obs"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/topo"
)

// counterfactualSpanLimit bounds span retention on the replayed kernels;
// the cells open far fewer spans than this, so nothing is dropped.
const counterfactualSpanLimit = 8192

// maxDiffSpans caps how many changed spans Render lists; the counts above
// the list always cover everything.
const maxDiffSpans = 12

// CounterfactualConfig describes one knob perturbation of a recorded
// seed: the cell and seed pin the scenario, Knob/Value name the single
// dimension that changes between the two runs.
type CounterfactualConfig struct {
	Cell  Cell
	Seed  uint64
	Quick bool
	// Knob is the ParamSpace name of the perturbed dimension.
	Knob string
	// Value is the perturbed setting (nanoseconds for duration knobs).
	Value int64
}

// PhaseDelta is one phase whose execution changed between the runs.
type PhaseDelta struct {
	Phase                obs.Phase
	BaseCount, PertCount int
	BaseTotal, PertTotal sim.Time
}

// SpanDelta is one coherence span that changed under the perturbation.
// Spans are matched across runs by (kind, initiator, pages, occurrence
// index) — the workload is deterministic, so the i-th such operation is
// "the same operation" in both histories. The VA is reported but not part
// of the identity: a perturbation that changes which addresses get
// recycled (e.g. sync frees returning VA immediately) still matches the
// operations up. Start is the base run's VA.
type SpanDelta struct {
	Kind      obs.Kind
	Initiator topo.CoreID
	Start     pt.VPN
	Pages     int
	Occur     int
	// NewSync marks a quiesce that newly fell back to the synchronous
	// IPI path (the send phase was lazy in the base run and is not in
	// the perturbed one); NewLazy is the reverse transition.
	NewSync, NewLazy bool
	// Wall is the span's open→close time in each run.
	BaseWall, PertWall sim.Time
	Phases             []PhaseDelta
}

func (d SpanDelta) changed() bool {
	return d.NewSync || d.NewLazy || d.BaseWall != d.PertWall || len(d.Phases) > 0
}

// Diff is the structured span-level comparison of the two runs.
type Diff struct {
	Config   CounterfactualConfig
	BaseEnc  string // canonical encoding of the base genome
	PertEnc  string // canonical encoding of the perturbed genome
	OldValue string // formatted base value of the knob
	NewValue string // formatted perturbed value

	BaseSpans, PertSpans int
	Matched              int
	BaseOnly, PertOnly   int
	NewSync, NewLazy     int

	// PhaseTotals aggregates every matched span's per-phase counts and
	// durations across the two runs, in phase order.
	PhaseTotals []PhaseDelta
	// Deltas lists the changed spans in base-run retention order.
	Deltas []SpanDelta

	Base, Pert Measurement
}

// spanKey names "the same operation" across the two runs: the occur-th
// span of this kind, initiator and size, in retention order.
type spanKey struct {
	kind      obs.Kind
	initiator topo.CoreID
	pages     int
	occur     int
}

func keyedSpans(spans []*obs.Span) (map[spanKey]*obs.Span, []spanKey) {
	seen := map[spanKey]int{}
	out := make(map[spanKey]*obs.Span, len(spans))
	order := make([]spanKey, 0, len(spans))
	for _, s := range spans {
		base := spanKey{kind: s.Kind, initiator: s.Initiator, pages: s.Pages}
		k := base
		k.occur = seen[base]
		seen[base]++
		out[k] = s
		order = append(order, k)
	}
	return out, order
}

// phases in reporting order.
var diffPhases = []obs.Phase{obs.PhaseInitiate, obs.PhaseSend, obs.PhaseInvalidate, obs.PhaseAck, obs.PhaseReclaim, obs.PhaseStore}

// Counterfactual re-runs cfg's recorded seed twice — once with the
// paper-default genome, once with the single knob perturbed — and diffs
// the retained coherence spans.
func Counterfactual(cfg CounterfactualConfig) (*Diff, error) {
	if cfg.Cell.Workload == "" && cfg.Cell.Machine == "" {
		cfg.Cell = Cell{Workload: "churn", Machine: "2x8"}
	}
	if _, _, err := cfg.Cell.resolve(); err != nil {
		return nil, err
	}
	space := Space()
	param, ok := space.ByName(cfg.Knob)
	if !ok {
		return nil, fmt.Errorf("tune: unknown knob %q (have %s)", cfg.Knob, knobNames(space))
	}
	if cfg.Value < param.Min || cfg.Value > param.Max {
		return nil, fmt.Errorf("tune: %s value %s outside [%s, %s]",
			param.Name, param.Format(cfg.Value), param.Format(param.Min), param.Format(param.Max))
	}
	base := space.Repair(space.Defaults())
	pert := base
	param.Set(&pert, cfg.Value)
	pert = space.Repair(pert)

	bk, bm := runCell(cfg.Cell, base, cfg.Quick, cfg.Seed, counterfactualSpanLimit)
	pk, pm := runCell(cfg.Cell, pert, cfg.Quick, cfg.Seed, counterfactualSpanLimit)
	baseSpans := bk.Spans.Retained()
	pertSpans := pk.Spans.Retained()

	d := &Diff{
		Config:    cfg,
		BaseEnc:   space.Encode(base),
		PertEnc:   space.Encode(pert),
		OldValue:  param.Format(param.Get(base)),
		NewValue:  param.Format(cfg.Value),
		BaseSpans: len(baseSpans),
		PertSpans: len(pertSpans),
		Base:      bm,
		Pert:      pm,
	}

	pertByKey, _ := keyedSpans(pertSpans)
	_, baseOrder := keyedSpans(baseSpans)
	baseByKey, _ := keyedSpans(baseSpans)

	totals := make([]PhaseDelta, len(diffPhases))
	for i, p := range diffPhases {
		totals[i].Phase = p
	}
	for _, key := range baseOrder {
		bs := baseByKey[key]
		ps, ok := pertByKey[key]
		if !ok {
			d.BaseOnly++
			continue
		}
		d.Matched++
		delta := SpanDelta{
			Kind: key.kind, Initiator: key.initiator, Start: bs.Start,
			Pages: key.pages, Occur: key.occur,
			BaseWall: bs.ClosedAt - bs.OpenedAt,
			PertWall: ps.ClosedAt - ps.OpenedAt,
		}
		bRan, bLazy := bs.PhaseLazy(obs.PhaseSend)
		pRan, pLazy := ps.PhaseLazy(obs.PhaseSend)
		if bRan && pRan {
			delta.NewSync = bLazy && !pLazy
			delta.NewLazy = !bLazy && pLazy
		}
		for i, p := range diffPhases {
			bc, bt := bs.PhaseTotal(p)
			pc, pt := ps.PhaseTotal(p)
			totals[i].BaseCount += bc
			totals[i].PertCount += pc
			totals[i].BaseTotal += bt
			totals[i].PertTotal += pt
			if bc != pc || bt != pt {
				delta.Phases = append(delta.Phases, PhaseDelta{
					Phase: p, BaseCount: bc, PertCount: pc, BaseTotal: bt, PertTotal: pt,
				})
			}
		}
		if delta.NewSync {
			d.NewSync++
		}
		if delta.NewLazy {
			d.NewLazy++
		}
		if delta.changed() {
			d.Deltas = append(d.Deltas, delta)
		}
	}
	d.PertOnly = len(pertSpans) - d.Matched
	d.PhaseTotals = totals
	return d, nil
}

func knobNames(s ParamSpace) string {
	names := make([]string, 0, s.Len())
	for _, p := range s.Params() {
		names = append(names, p.Name)
	}
	return strings.Join(names, ", ")
}

// Render produces the canonical text form of the diff — deterministic
// byte for byte, which is what the committed goldens assert.
func (d *Diff) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "counterfactual cell=%s seed=%d quick=%v\n", d.Config.Cell, d.Config.Seed, d.Config.Quick)
	fmt.Fprintf(&b, "knob %s: %s -> %s\n", d.Config.Knob, d.OldValue, d.NewValue)
	fmt.Fprintf(&b, "base: %s\n", d.BaseEnc)
	fmt.Fprintf(&b, "pert: %s\n", d.PertEnc)
	fmt.Fprintf(&b, "spans: base=%d pert=%d matched=%d base-only=%d pert-only=%d\n",
		d.BaseSpans, d.PertSpans, d.Matched, d.BaseOnly, d.PertOnly)
	fmt.Fprintf(&b, "quiesce path: newly-sync=%d newly-lazy=%d\n", d.NewSync, d.NewLazy)
	fmt.Fprintf(&b, "measurement: munmap %s -> %s, p99 %s -> %s, fallback %.4f -> %.4f\n",
		fmtNS(d.Base.MunmapNS), fmtNS(d.Pert.MunmapNS),
		fmtNS(d.Base.P99NS), fmtNS(d.Pert.P99NS),
		d.Base.FallbackRate, d.Pert.FallbackRate)
	b.WriteString("phase totals over matched spans:\n")
	for _, p := range d.PhaseTotals {
		if p.BaseCount == 0 && p.PertCount == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-10s %dx %v -> %dx %v\n",
			p.Phase.String()+":", p.BaseCount, p.BaseTotal, p.PertCount, p.PertTotal)
	}
	shown := min(len(d.Deltas), maxDiffSpans)
	fmt.Fprintf(&b, "changed spans (%d of %d shown):\n", shown, len(d.Deltas))
	for _, sd := range d.Deltas[:shown] {
		var clauses []string
		if sd.NewSync {
			clauses = append(clauses, "send lazy->sync (fallback IPI)")
		}
		if sd.NewLazy {
			clauses = append(clauses, "send sync->lazy")
		}
		for _, p := range sd.Phases {
			clauses = append(clauses, fmt.Sprintf("%s %dx %v -> %dx %v",
				p.Phase, p.BaseCount, p.BaseTotal, p.PertCount, p.PertTotal))
		}
		if sd.BaseWall != sd.PertWall {
			clauses = append(clauses, fmt.Sprintf("wall %v -> %v", sd.BaseWall, sd.PertWall))
		}
		fmt.Fprintf(&b, "  %s core%d vpn=0x%x+%d #%d: %s\n",
			sd.Kind, sd.Initiator, uint64(sd.Start), sd.Pages, sd.Occur,
			strings.Join(clauses, "; "))
	}
	return b.String()
}

// fmtNS renders a float nanosecond quantity with the sim.Time unit rules
// ("-" for an absent objective).
func fmtNS(v float64) string {
	if v == 0 {
		return "-"
	}
	return sim.Time(v).String()
}
