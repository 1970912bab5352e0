package experiments

import (
	"fmt"

	"latr/internal/fan"
	"latr/internal/kernel"
	"latr/internal/tune"
)

// Tune runs the policy auto-tuner: a seeded evolutionary search over
// LATR's parameter space (internal/tune) followed by a one-knob-at-a-time
// sensitivity sweep. The table shows, per evaluation cell, the paper
// defaults next to the best genome the search found (score 1.0 = exactly
// the paper config, lower is better), then each knob pushed to its bounds
// with everything else at defaults.
//
// The search is byte-deterministic: the same seed yields the same
// generation history at any -parallel value, which is what lets the
// result live in the bench -compare gate. It evaluates the built-in
// tune.Cells, which always resolve, so an error from the tuner is a
// program error and panics here, on the caller's goroutine.
func Tune(o Options) *Table {
	t := &Table{
		ID:    "tune",
		Title: "Policy auto-tuning: evolutionary search + knob sensitivity",
	}
	cfg := tune.SearchConfig{Seed: o.Seed, Quick: o.Quick, Workers: o.workers()}
	res, err := tune.Search(cfg)
	if err != nil {
		panic(err)
	}
	cells := res.Cells

	t.Columns = []string{"config", "objective"}
	for _, c := range cells {
		t.Columns = append(t.Columns, c.String())
	}

	addFitness := func(config string, f tune.Fitness) {
		type obj struct {
			name string
			get  func(tune.CellScore) string
		}
		objs := []obj{
			{"munmap mean", func(cs tune.CellScore) string {
				if cs.MunmapNS == 0 {
					return "-"
				}
				return fmtUS(cs.MunmapNS)
			}},
			{"p99 latency", func(cs tune.CellScore) string {
				if cs.P99NS == 0 {
					return "-"
				}
				return fmtUS(cs.P99NS)
			}},
			{"fallback rate", func(cs tune.CellScore) string {
				return fmt.Sprintf("%.4f", cs.FallbackRate)
			}},
			{"score", func(cs tune.CellScore) string {
				return fmt.Sprintf("%.4f", cs.Score)
			}},
		}
		for _, ob := range objs {
			row := []string{config, ob.name}
			for _, cs := range f.Cells {
				row = append(row, ob.get(cs))
			}
			t.AddRow(row...)
		}
	}
	addFitness("default", res.Baseline.Fitness)
	addFitness("tuned", res.Best.Fitness)

	// Knob sensitivity: each dimension alone at its search bounds, scored
	// against the same baselines. A knob whose bounds barely move the
	// score is slack; one that swings it is load-bearing.
	space := res.Space
	ev, err := tune.NewEvaluator(cells, o.Quick, o.Seed, o.workers())
	if err != nil {
		panic(err)
	}
	type probe struct {
		label  string
		genome kernel.Tunables
	}
	var probes []probe
	for _, p := range space.Params() {
		for _, v := range []int64{p.Min, p.Max} {
			g := space.Defaults()
			p.Set(&g, v)
			probes = append(probes, probe{
				label:  fmt.Sprintf("%s=%s", p.Name, p.Format(p.Get(space.Repair(g)))),
				genome: space.Repair(g),
			})
		}
	}
	scores := fan.Run(o.workers(), probes, func(_ int, pr probe) tune.Fitness {
		return ev.Fitness(pr.genome)
	})
	for i, pr := range probes {
		row := []string{pr.label, "score"}
		for _, cs := range scores[i].Cells {
			row = append(row, fmt.Sprintf("%.4f", cs.Score))
		}
		t.AddRow(row...)
	}

	t.Note("fitness per cell = 0.50*munmap + 0.35*p99 + 0.15*fallback, each normalized to the paper-default run of the same cell (1.0 = paper config; lower is better; absent objectives renormalized away)")
	t.Note("search: population %d x %d generations, tournament k=%d, elite %d, mutation %.2f, seed %d",
		res.Config.Population, res.Config.Generations, res.Config.TournamentK,
		res.Config.Elite, res.Config.MutationRate, res.Config.Seed)
	t.Note("best genome: %s", res.Best.Encoded)
	t.Note("best mean score %.4f vs paper default %.4f; history digest %016x (byte-identical at any -parallel)",
		res.Best.Fitness.Score, res.Baseline.Fitness.Score, res.HistoryDigest())
	return t
}
