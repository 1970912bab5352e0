package litmus

import (
	"fmt"
	"hash/fnv"
	"strings"

	"latr/internal/fan"
	"latr/internal/topo"
)

// SuiteConfig shapes a suite run: which policies, topologies and chaos
// profiles each scenario crosses, and how wide the worker pool fans.
type SuiteConfig struct {
	Policies []string // default: DefaultPolicies
	Topos    []string // default: 2x8 and 8x15
	Chaos    []string // default: none ("")
	Seed     uint64   // per-run seed base
	Workers  int      // fan pool width; <= 0 means GOMAXPROCS
}

func (c SuiteConfig) withDefaults() SuiteConfig {
	if len(c.Policies) == 0 {
		c.Policies = DefaultPolicies
	}
	if len(c.Topos) == 0 {
		c.Topos = topo.PaperNames()
	}
	if len(c.Chaos) == 0 {
		c.Chaos = []string{""}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// SuiteReport aggregates a suite run.
type SuiteReport struct {
	Cells    int       // (scenario × topology × chaos) cells executed
	Runs     int       // total policy runs (excluding skips)
	Skipped  int       // runs skipped (topology too small)
	Outcomes []Outcome // every outcome, in deterministic suite order
	Failures []string  // every per-run and cross-policy failure
	Digest   uint64    // FNV-1a over all outcome digests — byte-determinism witness
}

// Failed reports whether anything went wrong.
func (r *SuiteReport) Failed() bool { return len(r.Failures) > 0 }

// Summary renders a one-line result.
func (r *SuiteReport) Summary() string {
	status := "PASS"
	if r.Failed() {
		status = fmt.Sprintf("FAIL (%d failure(s))", len(r.Failures))
	}
	return fmt.Sprintf("litmus: %d cell(s), %d run(s), %d skipped, digest %016x: %s",
		r.Cells, r.Runs, r.Skipped, r.Digest, status)
}

// suiteCell is one (scenario, topology, chaos) cell; all policies run
// sequentially inside the cell so the cross-policy comparator has the full
// set in hand, while cells fan across the worker pool.
type suiteCell struct {
	sc    *Scenario
	topo  string
	chaos string
	seed  uint64
}

type cellResult struct {
	outs  []Outcome
	diffs []string
}

// RunSuite executes every scenario across the config's policy × topology ×
// chaos cross, fanned over the shared worker pool, and aggregates per-run
// and cross-policy failures. Results are in deterministic suite order
// regardless of worker count.
func RunSuite(scenarios []*Scenario, cfg SuiteConfig) *SuiteReport {
	cfg = cfg.withDefaults()
	var cells []suiteCell
	for si, sc := range scenarios {
		for _, tp := range cfg.Topos {
			for _, ch := range cfg.Chaos {
				cells = append(cells, suiteCell{sc: sc, topo: tp, chaos: ch, seed: cfg.Seed + uint64(si)*1000003})
			}
		}
	}
	results := fan.Run(cfg.Workers, cells, func(_ int, cell suiteCell) cellResult {
		var res cellResult
		for _, pol := range cfg.Policies {
			res.outs = append(res.outs, RunScenario(cell.sc, RunConfig{
				Policy: pol,
				Topo:   cell.topo,
				Chaos:  cell.chaos,
				Seed:   cell.seed,
			}))
		}
		res.diffs = ComparePolicies(cell.sc, res.outs)
		return res
	})

	rep := &SuiteReport{Cells: len(cells)}
	h := fnv.New64a()
	for _, res := range results {
		for _, o := range res.outs {
			rep.Outcomes = append(rep.Outcomes, o)
			if o.Skipped {
				rep.Skipped++
				continue
			}
			rep.Runs++
			for _, f := range o.Failures {
				rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %s", o.Key(), f))
			}
			h.Write([]byte(o.digest()))
			h.Write([]byte{0})
		}
		rep.Failures = append(rep.Failures, res.diffs...)
	}
	rep.Digest = h.Sum64()
	return rep
}

// RenderFailures pretty-prints up to max failure reports.
func (r *SuiteReport) RenderFailures(max int) string {
	if !r.Failed() {
		return ""
	}
	n := len(r.Failures)
	if max > 0 && n > max {
		n = max
	}
	var b strings.Builder
	for _, f := range r.Failures[:n] {
		b.WriteString("  - ")
		b.WriteString(f)
		b.WriteByte('\n')
	}
	if n < len(r.Failures) {
		fmt.Fprintf(&b, "  ... and %d more\n", len(r.Failures)-n)
	}
	return b.String()
}
